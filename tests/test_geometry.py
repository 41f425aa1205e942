"""Projective geometries: construction, density values, subfields, recognizer."""

import random
import time
import tracemalloc

import pytest
from conftest import messy_linear

from matroidlab import (ExplicitMatroid, UniformMatroid, bits, geometric_series_sum,
                        is_projective_geometry, mask_of, pg, popcount,
                        subfield_subgeometry, theta)
from matroidlab.certificates import target_from_descriptor
from matroidlab.errors import (NotASubfield, NotPrimePower, PreconditionFailed,
                               RankTooSmall, SizeLimit)
from matroidlab.harness.catalogs import two_lines_rank_3


def test_theta_values():
    assert theta(2, 3) == 7
    assert theta(3, 3) == 13
    assert theta(7, 1) == 1
    assert theta(5, 0) == 0
    assert theta(4, 4) == 85


def test_theta_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        theta(6, 3)


def test_geometric_series_any_base():
    assert geometric_series_sum(6, 3) == 43  # Kung bound base need not be a prime power
    assert geometric_series_sum(10, 2) == 11


def test_pg32_is_fano():
    f = pg(3, 2)
    assert f.n == 7 and f.rank_full == 3
    assert all(popcount(line) == 3 for line in f.flats_of_rank(2))


def test_pg25_is_u26():
    m = pg(2, 5)
    assert m.epsilon() == 6 and m.rank_full == 2


def test_pg34_line_sizes():
    m = pg(3, 4)
    assert m.epsilon() == 21
    lines = m.flats_of_rank(2)
    assert len(lines) == 21
    assert all(popcount(line) == 5 for line in lines)


def test_pg_size_cap():
    with pytest.raises(SizeLimit):
        pg(4, 5, max_points=100)


@pytest.mark.parametrize("build", [
    lambda: pg(200_000, 2),
    lambda: target_from_descriptor("pg:200000,2"),
])
def test_pg_rank_cap_checked_before_counting(build):
    # theta(2, 200000) has 60206 digits; the cap must not wait for it
    start = time.perf_counter()
    with pytest.raises(SizeLimit):
        build()
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("build", [
    lambda: pg(3, 100000000000031),
    lambda: target_from_descriptor("pg:3,100000000000031"),
])
def test_pg_field_cap_checked_before_factoring(build):
    # q is prime: factoring it by trial division takes about 10^7 steps
    start = time.perf_counter()
    with pytest.raises(SizeLimit):
        build()
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_pg_density_and_rank(q):
    for n in range(1, 6):
        if theta(q, n) > 1024:
            continue
        m = pg(n, q)
        assert m.epsilon() == theta(q, n)
        assert m.rank_full == n
        assert m.is_simple()


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 3), (4, 3)])
def test_pg_is_round(q, n):
    assert pg(n, q).is_round()


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3)])
def test_pg_contraction_profile(q, n):
    m = pg(n, q)
    minor = m.contract(1).simplify()
    assert minor.epsilon() == theta(q, n - 1)
    if n - 1 >= 3:
        assert is_projective_geometry(minor).order == q


def test_subfield_fano_in_pg24():
    m = pg(3, 4)
    mask = subfield_subgeometry(m, 1)
    assert popcount(mask) == 7
    sub = m.restrict(mask)
    assert sub.rank_full == 3
    assert all(sub.epsilon(line) == 3 for line in sub.flats_of_rank(2))
    assert is_projective_geometry(sub.simplify()).order == 2
    # the subfield columns are exactly the 0/1 ones
    expected = [j for j, col in enumerate(m.columns) if set(col) <= {0, 1}]
    assert sorted(bits(mask)) == expected


def test_subfield_identity():
    f = pg(3, 2)
    assert subfield_subgeometry(f, 1) == f.live


def test_subfield_line():
    m = pg(2, 4)
    assert popcount(subfield_subgeometry(m, 1)) == 3


def test_subfield_gf16_middle():
    m = pg(2, 16)
    assert popcount(subfield_subgeometry(m, 2)) == theta(4, 2)


def test_subfield_rejects_bad_degree():
    with pytest.raises(NotASubfield):
        subfield_subgeometry(pg(3, 4), 3)


def test_subfield_rejects_non_pg():
    from matroidlab import LinearMatroid, field_make
    m = LinearMatroid(field_make(4), [(1, 0), (0, 1)])
    with pytest.raises(PreconditionFailed):
        subfield_subgeometry(m, 1)


# -- recognizer -------------------------------------------------------------------

def test_recognizer_pg42():
    assert is_projective_geometry(pg(4, 2)).order == 2


def test_recognizer_pg43():
    report = is_projective_geometry(pg(4, 3))
    assert report.order == 3 and not report.plane


def test_recognizer_pg44():
    assert is_projective_geometry(pg(4, 4)).order == 4


def test_recognizer_u48_short_lines():
    report = is_projective_geometry(UniformMatroid(4, 8))
    assert report.order is None
    assert report.failure.startswith("line-with-fewer-than-3-points")


def test_recognizer_fano_minus_point():
    dent = pg(3, 2).delete(1 << 6)
    report = is_projective_geometry(dent)
    assert report.order is None
    assert report.failure.startswith("line-with-fewer-than-3-points")


def test_recognizer_plane_caveat():
    report = is_projective_geometry(pg(3, 3))
    assert report.order == 3 and report.plane


def test_recognizer_disjoint_lines_axiom():
    # two skew-free disjoint lines: a rank-4 circuit-ish uniform example has
    # only short lines, so build two disjoint 3-point lines with connectivity 1
    from matroidlab import DirectSum
    m = DirectSum([UniformMatroid(2, 3), UniformMatroid(2, 3)])
    # lines {0,1,2} and {3,4,5} are disjoint and skew here, so the recognizer
    # moves on and rejects on the point count instead
    report = is_projective_geometry(m)
    assert report.order is None


def test_recognizer_rank_too_small():
    with pytest.raises(RankTooSmall):
        is_projective_geometry(UniformMatroid(2, 4))


def test_recognizer_requires_simple():
    from matroidlab import LinearMatroid, field_make
    m = LinearMatroid(field_make(2), [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(PreconditionFailed):
        is_projective_geometry(m)


def test_recognizer_nonskew_disjoint_lines():
    # PG(2,4) minus a point: every line keeps >= 4 points, but two lines that
    # used to meet at the deleted point are now disjoint without being skew
    m = pg(3, 4).delete(1)
    report = is_projective_geometry(m)
    assert report.order is None
    assert report.failure.startswith("disjoint-lines-not-skew")


@pytest.mark.parametrize("rank", [3, 4])
def test_recognizer_affine_geometry_has_disjoint_coplanar_lines(rank):
    # AG(rank-1, 3) is PG(rank-1, 3) off the hyperplane x0 = 0: every line
    # has 3 points, but parallel lines are disjoint and span only a plane
    g = pg(rank, 3)
    ag = g.restrict(mask_of(j for j, col in enumerate(g.columns) if col[0]))
    assert ag.size == 3 ** (rank - 1)
    report = is_projective_geometry(ag)
    assert report.order is None and report.plane == (rank == 3)
    assert report.failure.startswith("disjoint-lines-not-skew")


def _pair_scan_report(m):
    """The recognizer's checks from rank calls alone, in its order and with
    its failure strings: the lines through each point a, one per point b
    not yet covered, as the c with r({a, b, c}) = 2, and every pair of
    disjoint lines ranked."""
    from matroidlab.field import is_prime_power
    from matroidlab.geometry import PgReport

    r = m.rank_full
    plane = r == 3
    elems = list(bits(m.live))
    found = set()
    for a in elems:
        rest = m.live & ~(1 << a)
        while rest:
            pair = 1 << a | rest & -rest
            line = mask_of(c for c in elems if m.rank(pair | 1 << c) == 2)
            found.add(line)
            rest &= ~line
    lines = sorted(found)
    for line in lines:
        if popcount(line) < 3:
            return PgReport(None, plane, f"line-with-fewer-than-3-points: {sorted(bits(line))}")
    for i, la in enumerate(lines):
        for lb in lines[i + 1:]:
            if not la & lb and m.rank(la | lb) != 4:
                return PgReport(None, plane,
                                f"disjoint-lines-not-skew: {sorted(bits(la))} vs {sorted(bits(lb))}")
    sizes = sorted({popcount(line) for line in lines})
    if len(sizes) != 1:
        return PgReport(None, plane, f"nonuniform-line-size: sizes {sizes}")
    q = sizes[0] - 1
    if not plane and not is_prime_power(q):
        return PgReport(None, plane, f"order-not-prime-power: {q}")
    if m.size != geometric_series_sum(q, r):
        return PgReport(None, plane, f"point-count-mismatch: {m.size} != theta({q},{r})")
    if plane and len(lines) != m.size:
        return PgReport(None, plane, f"line-count-mismatch: {len(lines)} lines")
    return PgReport(q, plane)


def _registry_members():
    from matroidlab.harness import catalogs

    for name in sorted(catalogs.REGISTRY):
        for member in catalogs.registry_catalog(name).members:
            m = member.matroid
            if m.rank_full >= 3 and m.is_simple():
                yield m


def _non_modular_plane(n, q, seed):
    """PG(n-1, q) less up to q - 2 seeded points of one plane (one point
    over GF(2)): two lines of that plane that met at a deleted point no
    longer meet, and for q >= 3 every line keeps at least 3 points."""
    rng = random.Random(seed)
    g = pg(n, q)
    plane = rng.choice(g.flats_of_rank(3))
    drop = rng.sample(list(bits(plane)), rng.randint(1, max(1, q - 2)))
    return g.delete(mask_of(drop))


def test_recognizer_matches_pair_scan_on_registry_members():
    # the extremal census runs the recognizer on simple members of these
    # catalogs; every simple member of rank >= 3 is compared here
    count = 0
    for m in _registry_members():
        assert is_projective_geometry(m) == _pair_scan_report(m)
        count += 1
    assert count > 100


def _affine(rank, q=3):
    g = pg(rank, q)
    return g.restrict(mask_of(j for j, col in enumerate(g.columns) if col[0]))


def _truncation(m, k):
    """The rank-k truncation of m, as a full rank table."""
    return ExplicitMatroid(m.n, [min(m.rank(s), k) for s in range(1 << m.n)])


MESSY_RANK_3 = [i for i in range(24) if messy_linear(i).rank_full >= 3]


@pytest.mark.parametrize("make", [
    lambda: _affine(3), lambda: _affine(4),
    lambda: two_lines_rank_3()[0],
    lambda: pg(3, 2), lambda: pg(3, 3), lambda: pg(3, 4), lambda: pg(4, 2),
    lambda: pg(4, 3), lambda: pg(4, 4), lambda: pg(5, 2),
    lambda: _affine(3, 4), lambda: _affine(3, 5), lambda: _truncation(pg(4, 2), 3),
    *(lambda i=i: messy_linear(i).simplify() for i in MESSY_RANK_3),
], ids=["AG(2,3)", "AG(3,3)", "two-lines", "PG(2,2)", "PG(2,3)", "PG(2,4)",
        "PG(3,2)", "PG(3,3)", "PG(3,4)", "PG(4,2)", "AG(2,4)", "AG(2,5)",
        "PG(3,2)-truncated-to-rank-3", *(f"messy-{i}" for i in MESSY_RANK_3)])
def test_recognizer_matches_pair_scan(make):
    m = make()
    assert is_projective_geometry(m) == _pair_scan_report(m)


def test_recognizer_keeps_no_line_or_plane_table():
    # a count of lines per plane and a list of all lines peak at 1.37 MiB
    # on PG(6,2); the plane-size test keeps a mask, a set and a flag
    m = pg(7, 2)
    tracemalloc.start()
    try:
        assert is_projective_geometry(m).order == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("n, q, seed", [(n, q, seed) for n in (3, 4) for q in (2, 3, 4)
                                        for seed in range(3)])
def test_recognizer_matches_pair_scan_on_non_modular_planes(n, q, seed):
    m = _non_modular_plane(n, q, seed)
    report = is_projective_geometry(m)
    assert report == _pair_scan_report(m)
    assert report.order is None
