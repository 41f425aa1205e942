"""Constructive density procedures and prime-power arithmetic.

These are the executable forms of the constructive arguments the census
machinery leans on: extracting a dense subset skew to a given set, descending
to a dense round restriction, the round/dense dichotomy at a prime-power
threshold, and building a long line from a long-line restriction plus a
projective plane.  Every hypothesis that can be computed is validated up
front; the procedures refuse rather than return unwarranted answers, and the
postconditions are re-verified before returning (a failure there is a bug,
surfaced as InternalContradiction, never a silent wrong answer).

All density comparisons are exact: thresholds are Fractions, counts are ints.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .bitset import MAX_GROUND, lowest, popcount
from .certificates import ContractionLine
from .core import Matroid
from .errors import (InternalContradiction, NoFreeElement, NoSuchFlat,
                     NotPrimePower, PreconditionFailed)
from .field import is_prime_power
from .geometry import geometric_series_sum, is_projective_geometry, theta

# -- prime powers ------------------------------------------------------------

# is_prime_power tries divisors up to sqrt(q), so this cap keeps one lookup
# within milliseconds
MAX_L = 10 ** 9


def prime_powers_up_to(limit: int) -> list:
    """Sorted prime powers <= limit, by a sieve of size limit."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    powers = []
    for p in range(2, limit + 1):
        if sieve[p]:
            for m in range(p * p, limit + 1, p):
                sieve[m] = 0
            v = p
            while v <= limit:
                powers.append(v)
                v *= p
    powers.sort()
    return powers


def largest_prime_power_leq(l: int) -> int:
    """The largest prime power <= l, counting down from l in constant
    memory; 2 <= l <= MAX_L."""
    if l < 2:
        raise PreconditionFailed(f"need l >= 2, got {l}")
    if l > MAX_L:
        raise PreconditionFailed(f"need l <= {MAX_L}, got {l}")
    q = l
    while not is_prime_power(q):
        q -= 1
    return q


def _require_prime_power(q: int):
    """Refuse q unless it is a prime power.  No input with q above the
    ground cap is valid (it needs more than q points), so such a q is
    refused before is_prime_power factors it in O(sqrt q)."""
    if q > MAX_GROUND:
        raise PreconditionFailed(f"q = {q} exceeds the ground-set cap {MAX_GROUND}")
    if not is_prime_power(q):
        raise NotPrimePower(f"{q} is not a prime power")


def gap_check(l: int) -> bool:
    """Whether l < 2q for q the largest prime power <= l.

    This always holds (there is a power of two in (l/2, l]), but the check
    computes it rather than assuming it.
    """
    return l < 2 * largest_prime_power_leq(l)


# -- parameter objects --------------------------------------------------------


@dataclass(frozen=True)
class DensityTarget:
    """Parameters for the skew dense-subset extraction.

    `lam` is the density coefficient (exact rational), `q` the density base,
    `l` caps the point count of lines in minors (the ambient matroid is
    assumed to have no (l+2)-point-line minor; that assumption is the one
    hypothesis not checked here, though a violation observed mid-run is
    reported), and `k` bounds the local connectivity that may be spent.
    """

    lam: Fraction
    q: int
    l: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.lam <= 0:
            raise PreconditionFailed(f"lam must be positive, got {self.lam}")
        if not self.q >= 2:
            raise PreconditionFailed(f"need q >= 2, got {self.q}")
        if not self.l >= self.q:
            raise PreconditionFailed(f"need l >= q, got l={self.l}, q={self.q}")
        if self.k < 0:
            raise PreconditionFailed(f"need k >= 0, got {self.k}")


@dataclass(frozen=True)
class GrowthPolicy:
    """A target point count f(k) per rank k, for the round-restriction descent.

    values[k-1] = f(k).  Integer tables must satisfy f(k) >= 2 f(k-1) - 1;
    non-integer (exact rational) tables must satisfy f(k) >= 2 f(k-1): the
    descent's counting argument uses the slack differently in the two cases,
    and these are exactly the conditions under which a qualifying side of a
    split always exists.  f(1) >= 1 either way.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise PreconditionFailed("empty growth table")
        if vals[0] < 1:
            raise PreconditionFailed(f"f(1) must be >= 1, got {vals[0]}")
        integral = all(v.denominator == 1 for v in vals)
        for k in range(2, len(vals) + 1):
            prev, cur = vals[k - 2], vals[k - 1]
            if integral:
                if cur < 2 * prev - 1:
                    raise PreconditionFailed(
                        f"integer table needs f({k}) >= 2 f({k - 1}) - 1")
            elif cur < 2 * prev:
                raise PreconditionFailed(
                    f"rational table needs f({k}) >= 2 f({k - 1})")

    @classmethod
    def from_table(cls, values) -> "GrowthPolicy":
        return cls(tuple(values))

    @classmethod
    def theta_halving(cls, q: int, s: int) -> "GrowthPolicy":
        """f(k) = (q/2)^(s-k) * theta(q, k) for k = 1..s, exact rationals.

        For q >= 4 this more than doubles at each step, so it is a valid
        policy whose rank-s value is exactly theta(q, s).
        """
        if q < 4:
            raise PreconditionFailed(f"need q >= 4, got {q}")
        half = Fraction(q, 2)
        return cls(tuple(half ** (s - k) * theta(q, k) for k in range(1, s + 1)))

    def value(self, k: int) -> Fraction:
        if not 1 <= k <= len(self.values):
            raise PreconditionFailed(f"growth table covers ranks 1..{len(self.values)}")
        return self.values[k - 1]

    @property
    def top_rank(self) -> int:
        return len(self.values)


# -- skew dense subset ---------------------------------------------------------


def _greedy_shrink(m: Matroid, subset: int, lam: Fraction, q: int) -> int:
    """Drop least-index points while the density bound survives.

    A candidate is a whole point P of M|S, so eps(S - P) = eps(S) - 1 and
    r(S - P) is r(S) or r(S) - 1, and the points of S - P are those of S
    but P: the points are taken once.  Above lam q^r(S) the first point
    goes, and so does each next one while the count stays above
    lam q^r(S), since the rank cannot grow: the first j go at once, for
    the least j that brings the count to lam q^r(S), and what is left is
    ranked once.  At or below lam q^(r(S) - 1) no point can go; in
    between, the first point whose removal drops the rank.  Such a point
    meets every basis of S, so only the points holding a column of one
    basis B of S are tested, and P drops the rank iff no element of
    S - P - B lies outside cl(B - P).
    """
    classes = m.points(subset)
    r = m.rank(subset)
    while True:
        count = len(classes) - 1
        if count > lam * q ** r:
            j = count - floor(lam * q ** r)
            for cls in classes[:j]:
                subset &= ~cls
            del classes[:j]
            r = m.rank(subset)
            continue
        if count * q <= lam * q ** r:
            return subset
        spanning = m._extend_basis(0, subset, r)
        for i, cls in enumerate(classes):
            if cls & spanning and not m._extend_basis(
                    spanning & ~cls, subset & ~(cls | spanning), 1):
                subset &= ~cls
                del classes[i]
                r -= 1
                break
        else:
            return subset


def _flat_avoiding(m: Matroid, e: int, target_rank: int) -> int:
    """Closure of the lexicographically first independent set of the given
    rank whose closure avoids the non-loop e.  An element inside cl(I + e)
    stays inside as I grows, so one scan in index order picks the same
    elements: each one outside the span of e and the ones picked before it
    (over a linear root, one echelon basis extended a column at a time).
    The scan stops at the last pick, and I is closed once."""
    ebit = 1 << e
    indep = m._extend_basis(ebit, m.live, target_rank)
    if popcount(indep) < target_rank:
        raise NoSuchFlat(f"no rank-{target_rank} flat avoids element {e}")
    flat = m.closure(indep)
    if ebit & flat:
        raise InternalContradiction("constructed flat contains the avoided element")
    return flat


def _skew_to_element(m: Matroid, subset: int, e: int, lam: Fraction,
                     q: int, l: int) -> int:
    """Shrink `subset` until it is skew to the single non-loop element e,
    keeping more than (lam / l) * q^rank points.

    One majority step through the hyperplanes over a corank-2 flat w; if the
    hyperplane through e is itself still dense at its own rank, descend into
    it first (rank strictly drops, so this terminates).  w is a flat, so
    the hyperplanes over it are w | P for the points P of scope/w.
    """
    ebit = 1 << e
    while True:
        if m.is_skew(subset, ebit):
            return subset
        subset = _greedy_shrink(m, subset, lam, q)
        scope = m.restrict(subset | ebit)
        r0 = scope.rank_full
        if r0 < 2:
            raise NoSuchFlat(
                "dense set has rank < 2 but is not skew to the element; "
                "inputs cannot satisfy the density hypothesis")
        w = _flat_avoiding(scope, e, r0 - 2)
        quotient = scope.contract(w)
        classes = quotient.points()
        m_count = len(classes) - 1
        if m_count > l:
            raise PreconditionFailed(
                f"found a rank-2 quotient with {m_count + 1} points; the ambient "
                f"matroid has an ({m_count + 1})-point-line minor, violating the "
                f"no-({l + 2})-point-line assumption")
        h_through_e = None
        rivals = []
        for cls in classes:
            flat = w | cls
            if cls & ebit:
                h_through_e = flat
            else:
                rivals.append(flat)
        if h_through_e is None:
            raise InternalContradiction("element vanished from its own quotient")
        inside = subset & h_through_e
        if scope.epsilon(inside) > lam * q ** scope.rank(inside):
            subset = inside  # still dense at its own rank: recurse into it
            continue
        best = None
        for flat in rivals:
            count = scope.epsilon(flat & subset)
            if best is None or count > best[0]:
                best = (count, flat)
        if best is None:
            raise InternalContradiction("no hyperplane avoids the element")
        result = subset & best[1]
        if not scope.is_skew(result, ebit):
            raise InternalContradiction("majority pick is not skew to the element")
        if not scope.epsilon(result) > (lam / l) * q ** scope.rank(result):
            raise InternalContradiction("majority pick misses the density bound")
        return result


def skew_dense_subset(matroid: Matroid, a: int, b: int,
                      target: DensityTarget) -> int:
    """A subset of `a` skew to `b`, keeping more than
    lam * l^-spent * q^rank points, for `spent` <= k the connectivity
    units the run spends.

    Mirrors the inductive argument: each round contracts the elements of
    `b` outside the closure of the current set (these contractions change
    none of the relevant ranks or point counts), then spends one
    connectivity unit making the set skew to a single element of `b`.
    The ambient matroid is restricted to the working set plus that element
    for the single-element step.  The returned set's skewness and density
    are re-verified against the original matroid; each step proves its
    bound in a contraction by a set skew to the result, so the floor holds
    there too.
    """
    if a & ~matroid.live or b & ~matroid.live:
        raise PreconditionFailed("sets extend outside the ground set")
    if a & b:
        raise PreconditionFailed("sets must be disjoint")
    lam, q, l, k = target.lam, target.q, target.l, target.k
    conn = matroid.local_connectivity(a, b)
    if conn > k:
        raise PreconditionFailed(f"local connectivity {conn} exceeds the budget {k}")
    eps_a = matroid.epsilon(a)
    r_a = matroid.rank(a)
    if not eps_a > lam * q ** r_a:
        raise PreconditionFailed(
            f"density hypothesis fails: {eps_a} <= {lam} * {q}^{r_a} "
            f"= {lam * q ** r_a}")

    current: Matroid = matroid
    sub = a
    rest = b
    lam_now = lam
    spent = 0
    while True:
        # contracting the least element of b outside the closure of the
        # current set, one at a time, takes the greedy extension of the set
        # by b in index order; views flatten, so contracting those elements
        # at once gives the same minor (and a view contracting nothing
        # would only drop the cached points)
        outside = current._extend_basis(sub, rest, popcount(rest))
        if outside:
            current = current.contract(outside)
            rest &= ~outside
        # now rest lies in cl(sub), so lambda(sub, rest) = r(rest): zero
        # exactly when every element of rest is a loop
        nonloops = rest & ~current._closure_impl(0, rest)
        if not nonloops:
            break
        if spent >= k:
            raise InternalContradiction(
                "connectivity did not drop within its budget")
        sub = _skew_to_element(current, sub, lowest(nonloops), lam_now, q, l)
        lam_now = lam_now / l
        spent += 1

    floor = lam_now * q ** matroid.rank(sub)
    if not matroid.is_skew(sub, b):
        raise InternalContradiction("result is not skew to b in the original matroid")
    if not matroid.epsilon(sub) > floor:
        raise InternalContradiction("result misses the density floor")
    return sub


# -- round restriction descent --------------------------------------------------


def round_restriction(matroid: Matroid, policy: GrowthPolicy) -> int:
    """A subset whose restriction is round and keeps at least f(rank) points.

    If the current restriction is not round, split it along the two-cell
    witness; at least one side meets its own target (otherwise the two
    sides' deficits would add up to fewer points than the whole has, a
    contradiction given the policy's growth condition).  Prefer the side
    with more points, breaking ties toward the smaller least index.
    """
    r = matroid.rank_full
    if r < 1:
        raise PreconditionFailed("need rank >= 1")
    if policy.top_rank < r:
        raise PreconditionFailed(
            f"growth table covers ranks up to {policy.top_rank}, matroid has rank {r}")
    if matroid.epsilon() < policy.value(r):
        raise PreconditionFailed(
            f"point count {matroid.epsilon()} is below f({r}) = {policy.value(r)}")
    subset = matroid.live
    current: Matroid = matroid
    while True:
        if current.is_round():
            return subset
        part = current.non_round_partition()
        best = None
        for side in (part.part_a, part.part_b):
            r_side = current.rank(side)
            eps_side = current.epsilon(side)
            if r_side >= 1 and eps_side >= policy.value(r_side):
                key = (eps_side, -lowest(side))
                if best is None or key > best[0]:
                    best = (key, side)
        if best is None:
            raise InternalContradiction(
                "neither side of a non-round split meets its growth target; "
                "the policy validation should have made this impossible")
        subset = best[1]
        current = matroid.restrict(subset)


@dataclass(frozen=True)
class RoundDenseOutcome:
    """Result of the round/dense dichotomy.

    kind is one of "already-round", "round-dense" (a round restriction of
    rank >= t strictly denser than theta(q, rank)), or "density-witness"
    (a round restriction of rank < t so dense it certifies a
    (q^2+2)-point-line minor via the classical point-count bound).
    """

    kind: str
    subset: int
    claims: dict


def _witness_claims(sub: Matroid, q: int) -> dict:
    """Verify and describe a density witness: eps > (q^2 rank)-series."""
    rn = sub.rank_full
    en = sub.epsilon()
    bound = geometric_series_sum(q * q, rn)
    if not en > bound:
        raise InternalContradiction(
            f"witness bound fails: {en} <= theta({q * q},{rn}) = {bound}")
    return {"rank": rn, "points": en, "theta_q2": bound,
            "line_points_certified": q * q + 2}


def round_dense_restriction(matroid: Matroid, q: int, t: int) -> RoundDenseOutcome:
    """Either a dense round restriction of rank >= t, or a density witness
    for a (q^2+2)-point-line minor; round inputs return "already-round".

    Preconditions: q a prime power >= 4, t >= 1, rank >= 3t, and at least
    theta(q, rank) points.  The descent policy is f(k) = (q/2)^(s-k) theta(q, k)
    with s the full rank, in exact rationals.
    """
    _require_prime_power(q)
    if q < 4:
        raise PreconditionFailed(f"need q >= 4, got {q}")
    if t < 1:
        raise PreconditionFailed(f"need t >= 1, got {t}")
    s = matroid.rank_full
    if s < 3 * t:
        raise PreconditionFailed(f"need rank >= 3t = {3 * t}, got {s}")
    eps = matroid.epsilon()
    need = theta(q, s)
    if eps < need:
        raise PreconditionFailed(f"need at least theta({q},{s}) = {need} points, got {eps}")
    if matroid.is_round():
        return RoundDenseOutcome("already-round", matroid.live, {"rank": s, "points": eps})
    policy = GrowthPolicy.theta_halving(q, s)
    subset = round_restriction(matroid, policy)
    sub = matroid.restrict(subset)
    rn = sub.rank_full
    en = sub.epsilon()
    if rn >= t:
        bound = theta(q, rn)
        if not en > bound:
            raise InternalContradiction(
                f"round restriction not strictly dense: {en} <= {bound}")
        return RoundDenseOutcome("round-dense", subset,
                                 {"rank": rn, "points": en, "theta_q": bound})
    return RoundDenseOutcome("density-witness", subset, _witness_claims(sub, q))


# -- long line from a line and a plane --------------------------------------------


def line_from_line_and_plane(matroid: Matroid, line: int, plane: int, q: int,
                             validate_round: bool = True) -> ContractionLine:
    """Contract down to a rank-2 flat carrying at least q^2 + 1 points.

    Hypotheses (validated): the matroid is round; the restriction to `line`
    is a (q+2)-point line (rank 2, simple); the restriction to `plane` is a
    rank-3 projective plane of order q.  While the rank exceeds 3, some
    element lies outside the spans of both named sets (else those spans
    would give a two-cell low-rank split, contradicting roundness); contract
    it.  At rank 3, contract an element of the long line not parallel into
    the plane: the plane is modular, so that element lies on at most one
    long line, and the contraction merges at most one full plane line into
    a point, leaving at least q^2 + 1 points on the resulting rank-2 flat.
    """
    _require_prime_power(q)
    for name, mask in (("line", line), ("plane", plane)):
        if mask & ~matroid.live:
            raise PreconditionFailed(f"{name} extends outside the ground set")
    sub_line = matroid.restrict(line)
    if sub_line.rank_full != 2 or not sub_line.is_simple() or sub_line.size != q + 2:
        raise PreconditionFailed(
            f"line restriction must be a simple rank-2 set of {q + 2} elements")
    sub_plane = matroid.restrict(plane)
    if sub_plane.rank_full != 3 or not sub_plane.is_simple():
        raise PreconditionFailed("plane restriction must be simple of rank 3")
    report = is_projective_geometry(sub_plane)
    if report.order != q:
        raise PreconditionFailed(
            f"plane restriction is not a projective plane of order {q}: "
            f"{report.failure}")
    if validate_round and not matroid.is_round():
        raise PreconditionFailed("matroid is not round")

    contracted = 0
    current: Matroid = matroid
    while current.rank_full > 3:
        span_l = current.closure(line)
        span_p = current.closure(plane)
        free = current.live & ~(span_l | span_p)
        if not free:
            recheck = current.is_round()
            raise NoFreeElement(
                "no element avoids both spans at rank "
                f"{current.rank_full}; roundness recheck: {recheck}")
        e = lowest(free)
        contracted |= 1 << e
        current = matroid.minor(contract=contracted)

    # rank 3: the least element of the long line whose point misses the
    # plane, else the least one off the plane; banned holds the loops,
    # which lie in every closure
    banned = 0
    for cls in current.points(plane):
        banned |= current.closure(cls & -cls)
    candidates = (line & current.live & ~banned
                  or current.live & ~banned & ~plane)
    if not candidates:
        raise NoFreeElement("no element lies outside the plane's parallel closure")
    contracted |= candidates & -candidates
    final = matroid.minor(contract=contracted)
    flat = final.closure(plane)
    pts = final.epsilon(flat)
    if final.rank(flat) != 2:
        raise InternalContradiction("plane did not contract to a rank-2 flat")
    if pts < q * q + 1:
        raise InternalContradiction(
            f"contracted line has {pts} points, below {q * q + 1}")
    return ContractionLine(contracted, flat, pts)
