"""Projective geometries over GF(q), their densities, and a recognizer.

PG(n-1, q) is built as one column per rank-1 subspace of GF(q)^n,
normalized so the first nonzero coordinate is 1, in lexicographic order of
the coordinate tuples.  That ordering is part of the contract: point
indices are stable across runs and feed golden files and certificates.
"""

from dataclasses import dataclass

from .bitset import MAX_GROUND, bits, popcount
from .core import LinearMatroid, Matroid, contractions
from .errors import (NotASubfield, NotPrimePower, PreconditionFailed,
                     RankTooSmall, SizeLimit)
from .field import MAX_FIELD_ORDER, field_make, is_prime_power


def geometric_series_sum(base: int, r: int) -> int:
    """1 + base + ... + base^(r-1), by iterated sum; any integer base >= 2."""
    if base < 2:
        raise PreconditionFailed(f"series base must be >= 2, got {base}")
    if r < 0:
        raise PreconditionFailed("negative rank")
    total = 0
    term = 1
    for _ in range(r):
        total += term
        term *= base
    return total


def theta(q: int, r: int) -> int:
    """Point count of PG(r-1, q): (q^r - 1)/(q - 1) as an exact integer."""
    if not is_prime_power(q):
        raise NotPrimePower(f"{q} is not a prime power")
    return geometric_series_sum(q, r)


def pg(n: int, q: int, max_points: int = MAX_GROUND) -> LinearMatroid:
    """The rank-n projective geometry PG(n-1, q)."""
    if n < 1:
        raise PreconditionFailed(f"rank must be >= 1, got {n}")
    if n - 1 >= max_points.bit_length():  # theta(q, n) >= 2^(n-1) > max_points
        raise SizeLimit(f"PG({n - 1},{q}) has at least 2^{n - 1} points, "
                        f"over the cap {max_points}")
    if q > MAX_FIELD_ORDER:  # before theta factors q, in O(sqrt q) divisions
        raise SizeLimit(f"field order {q} exceeds the cap of {MAX_FIELD_ORDER}")
    npoints = theta(q, n)
    if npoints > max_points:
        raise SizeLimit(f"PG({n - 1},{q}) has {npoints} points, over the cap {max_points}")
    spec = field_make(q)
    columns = []
    for code in range(q ** n):
        vec = []
        x = code
        for _ in range(n):
            vec.append(x % q)
            x //= q
        vec.reverse()
        lead = next((a for a in vec if a), 0)
        if lead != 1:
            continue  # zero vector or not normalized
        columns.append(tuple(vec))
    assert len(columns) == npoints
    return LinearMatroid(spec, columns)


def subfield_subgeometry(matroid: LinearMatroid, k0: int) -> int:
    """Columns of a pg() output whose coordinates lie in GF(p^k0).

    The restriction to the returned mask is PG(n-1, p^k0).
    """
    spec = matroid.field
    if k0 < 1 or spec.k % k0 != 0:
        raise NotASubfield(f"GF({spec.p}^{k0}) is not a subfield of GF({spec.q})")
    if matroid.n != theta(spec.q, matroid.nrows):
        raise PreconditionFailed("expected a full projective geometry matrix")
    sub = spec.subfield_elements(k0)
    mask = 0
    for j, col in enumerate(matroid.columns):
        if all(a in sub for a in col):
            mask |= 1 << j
    return mask


@dataclass(frozen=True)
class PgReport:
    """Outcome of the projective-geometry recognizer.

    `order` is set on success.  At rank 3 only the projective-plane axioms
    are checked, so `plane` is set and the order is a plane order: planes of
    order at most 8 are unique, hence genuinely PG(2, q) there, but no
    Desarguesian structure is asserted in general.
    """

    order: int | None
    plane: bool = False
    failure: str | None = None

    @property
    def recognized(self) -> bool:
        return self.order is not None


def is_projective_geometry(matroid: Matroid) -> PgReport:
    """Recognize PG(r-1, q) from the rank oracle alone.

    The caller simplifies first; loops or parallel pairs raise.  Checks, in
    order: every line has >= 3 points; every pair of disjoint lines is skew
    (at rank 3 this says every two lines of the plane meet); constant line
    size q+1; for rank >= 4, q is a prime power; the point count equals
    theta(q, r).  The first failed check is reported.

    One depth-2 walk of `contractions` keeps three things: the least line
    mask among lines of < 3 points, the set of line sizes, and a flag that
    stays true while |P| = (c-1)^2 for every point P of M/L at every line
    L of c points.  A short line is reported first, as the least short
    mask, which is the first short line in sorted order.  Once every line
    has >= 3 points, the reports are those of counting the lines of every
    plane and ranking every pair of disjoint lines:

    - A plane is projective iff it has |L|^2 - |L| + 1 points for each
      line L in it.  Forward: a plane of order n has lines of n + 1 points
      and n^2 + n + 1 points.  Backward: all its lines then share one size
      k; each point lies on (v-1)/(k-1) = k lines, so it has as many lines
      as points, and by de Bruijn-Erdos with no 2-point line it is
      projective.
    - The planes through L are L | P for the points P of M/L, so the flag
      says exactly that every plane has as many lines as points.
    - A non-projective plane has two disjoint lines (lines of >= 3 points
      that pairwise meet form a projective plane), and they are coplanar,
      so not skew; two disjoint lines in no common plane are skew.  So a
      disjoint pair that is not skew exists iff the flag is false, and
      only then are the sorted lines taken from `flats_of_rank(2)` and
      scanned pair by pair to name the first such pair.  A line is spanned
      by any two of its points, so two disjoint lines are skew iff the two
      least points of each have rank 4 together.
    - At rank 3 the flag forces |E| = c^2 - c + 1 and as many lines as
      points, so a plane needs no line count.

    The line-size, prime-power and point-count checks then guard the steps
    that rest on Veblen-Young: at rank >= 4, all planes projective make M
    a projective space, hence PG(r-1, q) over a field of order q.
    """
    r = matroid.rank_full
    if r <= 2:
        raise RankTooSmall(f"recognizer needs rank >= 3, got {r}")
    if not matroid.is_simple():
        raise PreconditionFailed("recognizer expects a simple matroid; simplify first")
    plane = r == 3
    short = None  # the least line of fewer than 3 points
    sizes = set()
    planes_ok = True  # |P| = (c-1)^2 for every point P of M/L, c = |L|
    for contract, line, minor in contractions(matroid, 2):
        if popcount(contract) != 2:
            continue
        c = popcount(line)  # simple: points of a flat are its elements
        if c < 3 and (short is None or line < short):
            short = line
        sizes.add(c)
        if planes_ok and any(popcount(p) != (c - 1) ** 2 for p in minor.points()):
            planes_ok = False
    if short is not None:
        return PgReport(None, plane, f"line-with-fewer-than-3-points: {sorted(bits(short))}")
    if not planes_ok:
        lines = matroid.flats_of_rank(2)
        pairs = []  # the two least points of each line, which span it
        for line in lines:
            rest = line & (line - 1)
            pairs.append(line & -line | rest & -rest)
        for i, la in enumerate(lines):
            for lb, pb in zip(lines[i + 1:], pairs[i + 1:]):
                if la & lb:
                    continue
                if matroid.rank(pairs[i] | pb) != 4:
                    return PgReport(None, plane,
                                    f"disjoint-lines-not-skew: {sorted(bits(la))} vs {sorted(bits(lb))}")
    if len(sizes) != 1:
        return PgReport(None, plane, f"nonuniform-line-size: sizes {sorted(sizes)}")
    q = sizes.pop() - 1
    if not plane and not is_prime_power(q):
        return PgReport(None, plane, f"order-not-prime-power: {q}")
    if matroid.size != geometric_series_sum(q, r):
        return PgReport(None, plane,
                        f"point-count-mismatch: {matroid.size} != theta({q},{r})")
    return PgReport(q, plane)
