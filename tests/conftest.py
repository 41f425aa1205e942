"""Shared seeded instance generators for the property suites."""

import random
from fractions import Fraction

from matroidlab import (DirectSum, LinearMatroid, UniformMatroid, bits,
                        field_make, mask_of, theta)
from matroidlab.procedures import DensityTarget, GrowthPolicy


def random_linear(q, rank, cols, seed):
    rng = random.Random(seed)
    spec = field_make(q)
    return LinearMatroid(spec, [tuple(rng.randrange(q) for _ in range(rank))
                                for _ in range(cols)])


def messy_linear(i):
    """Seeded GF(2), GF(3), GF(4) or GF(8) matrix of rank 2-4 with 6-10
    columns: random ones plus a zero column, a repeated column and a
    nonzero multiple of another column, in seeded order."""
    rng = random.Random(7_300 + i)
    q = (2, 3, 4, 8)[i % 4]
    spec = field_make(q)
    rank = rng.randint(2, 4)
    cols = [tuple(rng.randrange(q) for _ in range(rank))
            for _ in range(rng.randint(rank, 7))]
    cols.append((0,) * rank)
    cols.append(rng.choice(cols))
    c = rng.randrange(1, q)
    cols.append(tuple(spec.mul(c, a) for a in rng.choice(cols)))
    rng.shuffle(cols)
    return LinearMatroid(spec, cols)


def minor_views(m, rng):
    """A contraction, a deletion, a minor and a view of a view (which
    flattens into one contract and delete set), after the matroid itself."""
    a, b, c, d, e = (1 << p for p in rng.sample(list(bits(m.live)), 5))
    return [m, m.contract(a | b), m.delete(c | d), m.minor(a | b, c | d),
            m.contract(e).minor(a, c)]


def skew_dense_instance(index):
    """A deterministic valid input for the skew dense-subset extraction:
    (matroid, a, b, target) with connectivity(a, b) <= target.k <= 2 and
    eps(a) strictly above lam * q^rank(a).

    Instances keep lam >= l^(k-1) / q (for k >= 1), which guarantees no
    intermediate dense set can have rank 1: a rank-1 set has a single point,
    and 1 > lam' * q fails at every stage's threshold lam' >= lam / l^(k-1).
    Below that floor the extraction can be genuinely impossible (a lone
    point parallel to b admits no skew dense subset), which the procedure
    surfaces as NoSuchFlat; such degenerate parameters are not "valid"
    inputs and are never generated here.
    """
    rng = random.Random(31_000 + index)
    for _ in range(400):
        k = rng.choice([0, 1, 1, 2])
        if k == 2:
            # needs lam >= l/q, so the field must outgrow the density base
            field_q, q, l = 3, 2, 3
            rank = rng.randint(4, 5)
            cols = rng.randint(theta(3, rank) * 3 // 4, theta(3, rank))
        else:
            field_q = rng.choice([2, 3])
            if field_q == 2:
                q, l = 2, rng.choice([2, 3])
            else:
                q, l = rng.choice([(2, 3), (3, 3), (2, 4), (3, 4)])
            rank = rng.randint(2, 6 if field_q == 2 else 4)
            cols = rng.randint(rank + 2, min(30, theta(field_q, rank) + 4))
        m = random_linear(field_q, rank, cols, seed=rng.randrange(1 << 30))
        elems = list(bits(m.live))
        b = mask_of(rng.sample(elems, rng.randint(1, 2)))
        a = 0
        for e in elems:
            if not b >> e & 1 and rng.random() < 0.9:
                a |= 1 << e
        if a == 0:
            continue
        conn = m.local_connectivity(a, b)
        if conn > k:
            continue
        eps_a = m.epsilon(a)
        r_a = m.rank(a)
        lo = Fraction(l ** (k - 1), q) if k >= 1 else Fraction(1, 10 ** 6)
        hi = Fraction(eps_a, q ** r_a)
        if hi <= lo:
            continue
        lam = lo + (hi - lo) * Fraction(rng.randint(1, 9), 10)
        return m, a, b, DensityTarget(lam, q, l, k)
    raise AssertionError(f"no valid instance for index {index}")


def growth_instance(index):
    """A deterministic (matroid, policy) pair meeting the descent's
    preconditions; every third instance is a direct sum, hence non-round."""
    rng = random.Random(47_000 + index)
    kind = index % 3
    if kind == 0:
        q = rng.choice([2, 3])
        rank = rng.randint(2, 4)
        left = random_linear(q, rank, rng.randint(rank + 1, 10),
                             seed=rng.randrange(1 << 30))
        right = random_linear(q, rng.randint(1, 3), rng.randint(2, 8),
                              seed=rng.randrange(1 << 30))
        m = DirectSum([left, right])
    elif kind == 1:
        q = rng.choice([2, 3])
        rank = rng.randint(1, 5)
        m = random_linear(q, rank, rng.randint(rank + 1, 16),
                          seed=rng.randrange(1 << 30))
    else:
        m = DirectSum([UniformMatroid(2, rng.randint(3, 6)),
                       UniformMatroid(rng.randint(1, 2), rng.randint(2, 5))])
    r = m.rank_full
    if r < 1:
        return growth_instance(index + 7919)
    eps = m.epsilon()
    values = [0] * r
    values[r - 1] = rng.randint(1, max(1, eps))
    for k in range(r - 1, 0, -1):
        values[k - 1] = rng.randint(1, max(1, (values[k] + 1) // 2))
    return m, GrowthPolicy.from_table(values)
