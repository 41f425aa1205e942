"""Minor detection: longest line in a minor, small-target embeddings, and
projective-geometry restrictions.

Searches loop over `core.contractions`: one contraction set of point
representatives per flat, since parallel elements and equal closures give
minors with the same point structure.  Searches are exhaustive unless given
a node cap `max_nodes`, and a search that runs out of nodes reports
`unknown`, never a silent "no".  Over a linear root the line search also
ends at the field bound (see `root_field_order`).
"""

from dataclasses import dataclass

from .bitset import bits, lowest, mask_of, popcount, spread
from .certificates import MAX_EMBED_TARGET, ContractionLine, MinorEmbedding
from .core import LinearMatroid, Matroid, MinorView, contractions
from .errors import (BudgetExceeded, PreconditionFailed, RankTooSmall,
                     SizeLimit, TargetTooLarge)
from .geometry import is_projective_geometry, pg, theta

FOUND = "found"
ABSENT = "absent"
UNKNOWN = "unknown"


@dataclass
class LineMinorResult:
    points: int
    certificate: ContractionLine | None
    exact: bool
    nodes: int

    def require_exact(self) -> "LineMinorResult":
        """This result, or BudgetExceeded if the search was cut short."""
        if not self.exact:
            raise BudgetExceeded(
                f"search stopped after {self.nodes} nodes with best {self.points}")
        return self


@dataclass
class MinorOutcome:
    status: str  # found / absent / unknown
    certificate: object = None
    nodes: int = 0

    def require_decided(self) -> "MinorOutcome":
        """This outcome, or BudgetExceeded if it is unknown."""
        if self.status == UNKNOWN:
            raise BudgetExceeded(f"search undecided after {self.nodes} nodes")
        return self


class _OutOfNodes(Exception):
    pass


class _Nodes:
    """A search's node count; `tick` raises _OutOfNodes on the node past
    the cap, so a search cut by cap c reports c + 1 nodes."""

    __slots__ = ("count", "cap")

    def __init__(self, cap):
        self.count = 0
        self.cap = cap

    def tick(self):
        self.count += 1
        if self.cap is not None and self.count > self.cap:
            raise _OutOfNodes


def root_field_order(matroid: Matroid) -> int | None:
    """q of GF(q) when `matroid` is a LinearMatroid or a view of one (its
    `.base`), else None.  Every minor of a GF(q) matrix is GF(q)-
    representable and U(2, n) is only for n <= q + 1 (Oxley, Matroid
    Theory), so no line of a minor of such a root has more than q + 1
    points."""
    root = matroid.base if isinstance(matroid, MinorView) else matroid
    return root.field.q if isinstance(root, LinearMatroid) else None


def max_line_minor(matroid: Matroid, max_nodes: int | None = None,
                   stop_at: int | None = None) -> LineMinorResult:
    """Largest point count of a line in any minor of `matroid`.

    A line of M/C keeps its points when any point outside its span is
    contracted, so the answer is max eps(M/F) over the flats F of rank
    r - 2, and the search counts points at those leaves of the walk only.
    A node's contract set is independent, so its corank is r - |C| and the
    walk asks no rank.
    The certificate is the first leaf attaining the maximum: an independent
    contract set of r - 2 elements, with the whole surviving ground set as
    the line.  `stop_at` ends the search at the first leaf with at least
    that many points (the result is then exact as a lower bound >= stop_at).
    Over a GF(q) root (`root_field_order`) the search also ends, exact, at
    the first leaf with q + 1 points: no leaf can beat it, so it is the
    first maximal leaf and `points` and the certificate are those of the
    full walk.

    `nodes` counts the contraction sets visited, a refused one included.
    The walk visits one set per flat of rank <= r - 2 (the set's closure),
    so a search that neither the field bound nor `stop_at` ends reports
    the number of those flats; a search cut by `max_nodes=c` reports
    c + 1 and is inexact, and its `points` is the best over the leaves
    reached (0, with no certificate, if c < r - 1).
    """
    r = matroid.rank_full
    if r < 2:
        raise RankTooSmall(f"need rank >= 2, got {r}")
    q = root_field_order(matroid)
    if q is not None and (stop_at is None or stop_at > q + 1):
        stop_at = q + 1
    nodes = _Nodes(max_nodes)
    best, best_cert = 0, None
    try:
        for contract, _, minor in contractions(matroid, r - 2):
            nodes.tick()
            if r - popcount(contract) > 2:
                continue
            count = minor.epsilon()
            if count > best:
                best = count
                best_cert = ContractionLine(contract, minor.live, count)
                if stop_at is not None and best >= stop_at:
                    break
    except _OutOfNodes:
        return LineMinorResult(best, best_cert, False, nodes.count)
    return LineMinorResult(best, best_cert, True, nodes.count)


def has_u2n_minor(matroid: Matroid, npoints: int,
                  max_nodes: int | None = None) -> MinorOutcome:
    """Does `matroid` have an `npoints`-point line as a minor?"""
    if npoints < 3:
        raise PreconditionFailed(f"need npoints >= 3, got {npoints}")
    if matroid.rank_full < 2:
        return MinorOutcome(ABSENT)
    res = max_line_minor(matroid, max_nodes, stop_at=npoints)
    if res.points >= npoints:
        return MinorOutcome(FOUND, res.certificate, res.nodes)
    if res.exact:
        return MinorOutcome(ABSENT, None, res.nodes)
    return MinorOutcome(UNKNOWN, None, res.nodes)


def _try_embed(minor: Matroid, target: Matroid, nodes: _Nodes):
    """Backtracking injection of target elements onto point representatives
    of `minor`, preserving the rank of every subset of the mapped prefix.
    Returns the mapping (base elements, in target element order) or None;
    the node cap's _OutOfNodes passes through."""
    telems = list(bits(target.live))
    k = len(telems)
    reps = [lowest(c) for c in minor.points()]
    if len(reps) < k:
        return None
    trank = [0] * (1 << k)
    for s in range(1, 1 << k):
        trank[s] = target.rank(spread(s, telems))
    mapping: list[int] = []
    used = set()

    def consistent() -> bool:
        j = len(mapping) - 1
        jbit = 1 << j
        for s in range(1 << j):
            full = s | jbit
            if minor.rank(spread(full, mapping)) != trank[full]:
                return False
        return True

    def bt() -> bool:
        nodes.tick()
        if len(mapping) == k:
            return True
        for v in reps:
            if v in used:
                continue
            mapping.append(v)
            used.add(v)
            if consistent() and bt():
                return True
            used.discard(v)
            mapping.pop()
        return False

    return tuple(mapping) if bt() else None


def minor_isomorphic(matroid: Matroid, target: Matroid,
                     max_nodes: int | None = None,
                     target_name: str = "") -> MinorOutcome:
    """Search for a minor of `matroid` isomorphic to a tiny simple target.

    Enumerates independent contraction sets (closure-deduplicated), then
    backtracks a rank-preserving bijection onto point representatives.
    The target's size is checked before anything is asked of it.
    """
    if target.size > MAX_EMBED_TARGET:
        raise TargetTooLarge(
            f"target has {target.size} elements, cap is {MAX_EMBED_TARGET}")
    if not target.is_simple():
        raise PreconditionFailed("target must be simple")
    max_c = matroid.rank_full - target.rank_full
    if max_c < 0:
        return MinorOutcome(ABSENT)
    nodes = _Nodes(max_nodes)
    try:
        for contract, _, minor in contractions(matroid, max_c):
            nodes.tick()
            found = _try_embed(minor, target, nodes)
            if found is not None:
                delete = minor.live & ~mask_of(found)
                cert = MinorEmbedding(contract, delete, found, target_name)
                return MinorOutcome(FOUND, cert, nodes.count)
    except _OutOfNodes:
        return MinorOutcome(UNKNOWN, None, nodes.count)
    return MinorOutcome(ABSENT, None, nodes.count)


PG_EMBED_LIMIT = 13


def find_pg_restriction(matroid: Matroid, m: int, q: int,
                        nodes: _Nodes | None = None) -> int | None:
    """A point set S with M|S isomorphic to PG(m-1, q), or None.

    Scans rank-m flats in enumeration order.  A flat whose point count is
    exactly theta(q, m) is tested directly with the recognizer; a denser
    flat is searched for an embedded copy by backtracking, provided
    theta(q, m) <= PG_EMBED_LIMIT.  Beyond that bound a denser flat is
    skipped, and a scan that skipped one and found nothing raises SizeLimit
    rather than answer None.  The backtrack ticks `nodes`, a caller's node
    cap, when given.  Rank-3 hits carry the projective-plane caveat of the
    recognizer.
    """
    if m < 3:
        raise PreconditionFailed(f"need m >= 3, got {m}")
    want = theta(q, m)
    if m > matroid.rank_full:
        return None
    skipped = False
    for flat in matroid.flats_of_rank(m):
        sub = matroid.restrict(flat)
        reps = sub.representatives()
        npts = sub.epsilon()
        if npts < want:
            continue
        if npts == want:
            report = is_projective_geometry(sub.simplify())
            if report.order == q:
                return reps
            continue
        if want > PG_EMBED_LIMIT:
            skipped = True
            continue
        simple = matroid.restrict(reps)
        found = _try_embed(simple, pg(m, q), nodes or _Nodes(None))
        if found is not None:
            return mask_of(found)
    if skipped:
        raise SizeLimit(f"skipped a rank-{m} flat denser than theta = {want}, "
                        f"over the embedding limit {PG_EMBED_LIMIT}")
    return None


def find_pg_minor(matroid: Matroid, m: int, q: int,
                  max_nodes: int | None = None) -> MinorOutcome:
    """Contract-then-look-for-a-restriction search for a PG(m-1, q)-minor.

    Exhaustive over contraction closures unless `max_nodes` caps `nodes`,
    the contraction sets plus the steps of the embedding backtrack.  A
    contraction whose restriction scan hits the embedding limit of
    find_pg_restriction is passed over, and the search then ends `unknown`
    rather than `absent`.
    """
    max_c = matroid.rank_full - m
    if max_c < 0:
        return MinorOutcome(ABSENT)
    nodes = _Nodes(max_nodes)
    status = ABSENT
    try:
        for contract, _, minor in contractions(matroid, max_c):
            nodes.tick()
            try:
                hit = find_pg_restriction(minor, m, q, nodes)
            except SizeLimit:
                status = UNKNOWN
                continue
            if hit is not None:
                return MinorOutcome(FOUND, {"contract": contract, "restriction": hit},
                                    nodes.count)
    except _OutOfNodes:
        return MinorOutcome(UNKNOWN, None, nodes.count)
    return MinorOutcome(status, None, nodes.count)
