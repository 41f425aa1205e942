"""Brute-force baselines the fast paths are checked against.

Each oracle works from a full rank table and enumerates without any of the
prunings the fast implementations rely on, so agreement is meaningful.
Size limits keep the enumerations desk-scale.
"""

from ..bitset import bits, lowest, popcount, spread
from ..certificates import Partition
from ..core import ExplicitMatroid, Matroid
from ..errors import SizeLimit

RANK_AXIOM_LIMIT = 12
ROUNDNESS_LIMIT = 14
MINOR_SEARCH_LIMIT = 10


def to_explicit(matroid: Matroid) -> ExplicitMatroid:
    """Tabulated copy (elements renumbered to 0..size-1); the copy is itself
    checked against the original on every subset."""
    table = ExplicitMatroid.from_matroid(matroid, verify=False)
    elems = list(bits(matroid.live))
    for x in range(1 << table.n):
        if table.table[x] != matroid.rank(spread(x, elems)):
            raise AssertionError("tabulated copy disagrees with the original")
    return table


def oracle_rank_axioms(matroid: Matroid) -> None:
    """Bounds, monotonicity and submodularity on every pair of subsets,
    read off the full rank table.

    Raises AssertionError naming the first violated axiom; SizeLimit above
    RANK_AXIOM_LIMIT elements.
    """
    n = popcount(matroid.live)
    if n > RANK_AXIOM_LIMIT:
        raise SizeLimit(f"rank-axiom oracle capped at {RANK_AXIOM_LIMIT} elements")
    r = to_explicit(matroid).table
    full = 1 << n
    if r[0] != 0:
        raise AssertionError("rank of the empty set is nonzero")
    if not all(0 <= r[x] <= popcount(x) for x in range(full)):
        raise AssertionError("0 <= rank <= |X| fails")
    for e in range(n):
        bit = 1 << e
        if any(r[x] > r[x | bit] for x in range(full) if not x & bit):
            raise AssertionError("monotonicity fails")
    # the inequality is symmetric in x and y, so unordered pairs cover it
    for x in range(full):
        rx = r[x]
        if any(r[x | y] + r[x & y] > rx + r[y] for y in range(x + 1, full)):
            raise AssertionError("submodularity fails")


def oracle_roundness(matroid: Matroid):
    """(is_round, witness partition or None) by trying every 2-partition."""
    n = popcount(matroid.live)
    if n > ROUNDNESS_LIMIT:
        raise SizeLimit(f"roundness oracle capped at {ROUNDNESS_LIMIT} elements")
    table = to_explicit(matroid)
    elems = list(bits(matroid.live))
    full_rank = table.rank_full
    full = (1 << n) - 1
    for a in range(1, full, 2):  # odd masks contain element 0; swaps are symmetric
        b = full & ~a
        if b == 0:
            continue
        if table.table[a] < full_rank and table.table[b] < full_rank:
            part_a = 0
            part_b = 0
            for i, e in enumerate(elems):
                if a >> i & 1:
                    part_a |= 1 << e
                else:
                    part_b |= 1 << e
            return False, Partition(part_a, part_b)
    return True, None


def _independent_sets(table: ExplicitMatroid):
    """All independent masks, smallest-last DFS order (includes the empty set)."""
    n = table.n
    out = [0]
    stack = [(0, 0)]
    while stack:
        mask, nxt = stack.pop()
        for e in range(nxt, n):
            cand = mask | (1 << e)
            if table.table[cand] == popcount(cand):
                out.append(cand)
                stack.append((cand, e + 1))
    return out


def oracle_max_line(matroid: Matroid) -> int:
    """Max point count on a line of any minor, by trying every independent
    contraction set with no pruning (deleting elements never adds points to
    a flat, so deletions need not be enumerated)."""
    n = popcount(matroid.live)
    if n > MINOR_SEARCH_LIMIT:
        raise SizeLimit(f"minor-search oracle capped at {MINOR_SEARCH_LIMIT} elements")
    table = to_explicit(matroid)
    best = 0
    for c in _independent_sets(table):
        minor = table.minor(contract=c) if c else table
        if minor.rank_full < 2:
            continue
        classes = minor.points()
        if minor.rank_full == 2:
            best = max(best, len(classes))
            continue
        reps = [lowest(cl) for cl in classes]
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                flat = minor.closure((1 << a) | (1 << b))
                count = sum(1 for cl in classes if cl & flat)
                if count > best:
                    best = count
    return best


def oracle_u2n(matroid: Matroid, npoints: int) -> bool:
    """Literal minor scan: over every independent contraction set, does some
    subset of the remaining elements induce an npoints-point line (rank 2,
    all pairs rank 2, no loops)?"""
    n = popcount(matroid.live)
    if n > MINOR_SEARCH_LIMIT:
        raise SizeLimit(f"minor-search oracle capped at {MINOR_SEARCH_LIMIT} elements")
    table = to_explicit(matroid)
    from itertools import combinations

    for c in _independent_sets(table):
        minor = table.minor(contract=c) if c else table
        if minor.rank_full < 2:
            continue
        live = [e for e in bits(minor.live) if minor.rank(1 << e) == 1]
        if len(live) < npoints:
            continue
        for pick in combinations(live, npoints):
            mask = 0
            for e in pick:
                mask |= 1 << e
            if minor.rank(mask) != 2:
                continue
            simple = all(minor.rank((1 << a) | (1 << b)) == 2
                         for a, b in combinations(pick, 2))
            if simple:
                return True
    return False


def rank_profile(matroid: Matroid) -> tuple:
    """Isomorphism-invariant fingerprint: counts of (subset size, rank)."""
    from collections import Counter

    n = popcount(matroid.live)
    if n > RANK_AXIOM_LIMIT:
        raise SizeLimit(f"rank profile capped at {RANK_AXIOM_LIMIT} elements")
    table = to_explicit(matroid)
    counts = Counter()
    for x in range(1 << table.n):
        counts[(popcount(x), table.table[x])] += 1
    return tuple(sorted(counts.items()))


def are_isomorphic(m1: Matroid, m2: Matroid) -> bool:
    """Exact isomorphism for tiny matroids by backtracking a bijection that
    preserves the rank of every subset; loops and parallel elements included."""
    n = popcount(m1.live)
    if n != popcount(m2.live):
        return False
    if n > 9:
        raise SizeLimit("exact isomorphism capped at 9 elements")
    t1 = to_explicit(m1)
    t2 = to_explicit(m2)
    if t1.rank_full != t2.rank_full:
        return False
    mapping = []
    used = 0

    def consistent() -> bool:
        j = len(mapping) - 1
        jbit = 1 << j
        for s in range(1 << j):
            sub2 = s | jbit
            sub1 = 0
            y = sub2
            i = 0
            while y:
                if y & 1:
                    sub1 |= 1 << mapping[i]
                y >>= 1
                i += 1
            if t1.table[sub1] != t2.table[sub2]:
                return False
        return True

    def bt() -> bool:
        nonlocal used
        if len(mapping) == n:
            return True
        for v in range(n):
            if used >> v & 1:
                continue
            mapping.append(v)
            used |= 1 << v
            if consistent() and bt():
                return True
            used ^= 1 << v
            mapping.pop()
        return False

    return bt()


def oracle_minor_isomorphic(matroid: Matroid, target: Matroid) -> bool:
    """Literal minor-isomorphism scan: every independent contraction set,
    every kept subset of the right size, every bijection.  Tiny inputs only."""
    from itertools import combinations, permutations

    n = popcount(matroid.live)
    k = popcount(target.live)
    if n > 8 or k > 4:
        raise SizeLimit("literal isomorphism oracle capped at n <= 8, target <= 4")
    table = to_explicit(matroid)
    ttab = to_explicit(target)
    for c in _independent_sets(table):
        minor = table.minor(contract=c) if c else table
        live = list(bits(minor.live))
        if len(live) < k:
            continue
        for pick in combinations(live, k):
            for perm in permutations(pick):
                for s in range(1, 1 << k):
                    tmask = 0
                    mmask = 0
                    for i in range(k):
                        if s >> i & 1:
                            tmask |= 1 << i
                            mmask |= 1 << perm[i]
                    if ttab.rank(tmask) != minor.rank(mmask):
                        break
                else:
                    return True
    return False


# the top byte of a 32-bit word -> b"1" when its bit 31 is 0
_COIN = b"1" * 128 + b"0" * 128


def coin_mask(rng, elems: list) -> int:
    """The mask of the elements of `elems` (ascending) for which
    `rng.random() < 0.5`, drawn in order, one draw per element, from a
    single `getrandbits` call.  random() < 0.5 exactly when bit 31 of the
    first of the two 32-bit words it draws is 0, and getrandbits(64 n)
    lays the same 2n words out little-endian, so byte 8i + 3 is the top
    byte of draw i's first word; `rng` ends in the loop's state."""
    n = len(elems)
    x = int(rng.getrandbits(64 * n).to_bytes(8 * n, "little")[3::8]
            .translate(_COIN)[::-1] or b"0", 2)
    # ascending and distinct, so elems is 0..n-1 iff it ends at n - 1
    return x if not n or elems[-1] == n - 1 else spread(x, elems)


def oracle_rank_axioms_sampled(matroid: Matroid, samples: int = 10_000,
                               seed: int = 0) -> None:
    """Randomized triple checks for matroids too large to tabulate."""
    import random

    rng = random.Random(seed)
    elems = list(bits(matroid.live))
    for _ in range(samples):
        x = coin_mask(rng, elems)
        y = coin_mask(rng, elems)
        rx, ry = matroid.rank(x), matroid.rank(y)
        if not 0 <= rx <= popcount(x):
            raise AssertionError("0 <= rank <= |X| fails")
        if x & ~y == 0 and rx > ry:
            raise AssertionError("monotonicity fails")
        if matroid.rank(x | y) + matroid.rank(x & y) > rx + ry:
            raise AssertionError("submodularity fails")
