"""Line-minor search, small-target embeddings, PG restrictions; all fast
paths cross-checked against the literal enumeration oracles."""

import random
import time

import pytest
from conftest import messy_linear, minor_views, random_linear

from matroidlab import (ABSENT, FOUND, UNKNOWN, LinearMatroid, UniformMatroid,
                        bits, field_make, find_pg_minor, find_pg_restriction,
                        has_u2n_minor, mask_of, max_line_minor, minor_isomorphic,
                        pg, popcount, subfield_subgeometry, verify_certificate)
from matroidlab.errors import RankTooSmall, SizeLimit, TargetTooLarge
from matroidlab.harness.catalogs import fano_plus_point
from matroidlab.harness.oracles import oracle_max_line, oracle_u2n, to_explicit


def test_max_line_fano():
    res = max_line_minor(pg(3, 2))
    assert res.points == 3 and res.exact
    assert verify_certificate(res.certificate, pg(3, 2))
    assert oracle_max_line(pg(3, 2)) == 3


def _prime_subgeometry(n, q):
    """PG(n-1, p) inside pg(n, q), q = p^k > p, as a restriction of the
    GF(q) matrix: its lines have p + 1 points, below the field bound
    q + 1, so the bound does not end its line search."""
    m = pg(n, q)
    return m.restrict(subfield_subgeometry(m, 1))


def test_max_line_pg34_pins_its_counts():
    # the field bound ends the search at the first 5-point leaf: the root,
    # one point and one line
    m = pg(4, 4)
    res = max_line_minor(m)
    assert (res.points, res.nodes, res.exact) == (5, 3, True)
    assert verify_certificate(res.certificate, m)
    assert verify_certificate(res.certificate, pg(4, 4))
    # PG(3,2) over GF(4) is searched exhaustively: one node per flat of
    # rank <= 2, 1 + 15 points + 35 lines
    sub = _prime_subgeometry(4, 4)
    res = max_line_minor(sub)
    assert (res.points, res.nodes, res.exact) == (3, 51, True)
    assert verify_certificate(res.certificate, sub)


def test_max_line_walk_ranks_only_the_root(monkeypatch):
    # a walk node's contract set is independent, so its corank is r - |C|:
    # the search takes r(M) once and no view ranks its contract set, on a
    # search the field bound ends and on an exhaustive one
    calls = []
    rank_impl = LinearMatroid._rank_impl

    def counted(self, subset):
        calls.append(subset)
        return rank_impl(self, subset)

    for m, nodes in [(pg(4, 4), 3), (_prime_subgeometry(4, 4), 51)]:
        calls.clear()
        monkeypatch.setattr(LinearMatroid, "_rank_impl", counted)
        res = max_line_minor(m)
        monkeypatch.undo()
        assert (res.nodes, res.exact) == (nodes, True)
        assert calls == [m.live]


def test_max_line_u36():
    res = max_line_minor(UniformMatroid(3, 6))
    assert res.points == 5 and res.exact
    assert verify_certificate(res.certificate, UniformMatroid(3, 6))


def test_max_line_u27_rank2():
    res = max_line_minor(UniformMatroid(2, 7))
    assert res.points == 7
    assert res.certificate.contract == 0


def test_max_line_rank_too_small():
    with pytest.raises(RankTooSmall):
        max_line_minor(UniformMatroid(1, 4))


def test_max_line_budget_unknown():
    res = max_line_minor(pg(4, 2), max_nodes=2)
    assert not res.exact


def test_has_u2n_fano_no_4pt():
    out = has_u2n_minor(pg(3, 2), 4)
    assert out.status == ABSENT
    assert not oracle_u2n(pg(3, 2), 4)


def test_has_u2n_u26():
    out = has_u2n_minor(UniformMatroid(2, 6), 6)
    assert out.status == FOUND
    assert verify_certificate(out.certificate, UniformMatroid(2, 6))


def test_has_u2n_fano_plus_point():
    m, _, _, _ = fano_plus_point()
    out = has_u2n_minor(m, 5)
    assert out.status == FOUND
    assert out.certificate.points >= 5
    assert verify_certificate(out.certificate, m)


def test_has_u2n_budget_unknown():
    out = has_u2n_minor(pg(4, 2), 4, max_nodes=1)
    assert out.status == UNKNOWN


def _small_linear(i):
    """Seeded GF(2), GF(3) or GF(4) matrix of rank 2-4 with at most 10
    columns, one of them zero and one a repeat of another."""
    rng = random.Random(6_100 + i)
    q = (2, 3, 4)[i % 3]
    rank = rng.randint(2, 4)
    m = random_linear(q, rank, rng.randint(rank + 1, 8), seed=rng.randrange(1 << 30))
    cols = list(m.columns)
    cols.insert(rng.randrange(len(cols) + 1), rng.choice(cols))
    cols.insert(rng.randrange(len(cols) + 1), (0,) * rank)
    return LinearMatroid(m.field, cols)


SMALL_LINEAR = [pytest.param(lambda i=i: _small_linear(i), None,
                             id=f"gf{(2, 3, 4)[i % 3]}-{i}") for i in range(30)]


@pytest.mark.parametrize("make,expect", [
    (lambda: pg(3, 2), 3),
    (lambda: pg(3, 3).restrict((1 << 10) - 1), None),  # 10-point plane restriction
    (lambda: UniformMatroid(3, 6), 5),
    (lambda: UniformMatroid(4, 7), 5),
    (lambda: fano_plus_point()[0], 5),
] + SMALL_LINEAR)
def test_max_line_agrees_with_oracle(make, expect):
    m = make()
    res = max_line_minor(m)
    assert res.exact
    assert res.points == oracle_max_line(m)
    if expect is not None:
        assert res.points == expect
    assert verify_certificate(res.certificate, m)


def _binary_entries(i):
    """Seeded GF(4) or GF(8) matrix of rank 3-4 with at most 10 columns, two
    of them unit vectors, whose entries all lie in GF(2): a binary matroid
    over a larger field, so its lines stay below the field bound q + 1."""
    rng = random.Random(8_200 + i)
    q = (4, 8)[i % 2]
    rank = rng.randint(3, 4)
    cols = [tuple(rng.randrange(2) for _ in range(rank))
            for _ in range(rng.randint(rank - 1, 8))]
    cols += [(1, 0) + (0,) * (rank - 2), (0, 1) + (0,) * (rank - 2)]
    rng.shuffle(cols)
    return LinearMatroid(field_make(q), cols)


def _check_bounded_search(m, q):
    # the answer and certificate of the exhaustive walk; the field bound
    # only cuts `nodes`, and only when the answer reaches q + 1
    res = max_line_minor(m)
    assert res.exact and res.points == oracle_max_line(m)
    assert verify_certificate(res.certificate, m)
    flats = _flats_up_to(m, m.rank_full - 2)
    assert res.nodes <= flats
    if res.points < q + 1:
        assert res.nodes == flats
    return res.points == q + 1


@pytest.mark.parametrize("i", range(24))
def test_bounded_search_agrees_with_oracle_on_messy_views(i):
    m = messy_linear(i)
    for view in minor_views(m, random.Random(400 + i)):
        if view.rank_full >= 2:
            _check_bounded_search(view, m.field.q)


@pytest.mark.parametrize("i", range(12))
def test_bounded_search_agrees_with_oracle_on_binary_entries(i):
    m = _binary_entries(i)
    assert not _check_bounded_search(m, m.field.q)


def test_oracle_u2n_agrees_on_catalog():
    cases = [pg(3, 2), UniformMatroid(3, 6), fano_plus_point()[0]]
    cases += [_small_linear(i) for i in range(30)]
    for m in cases:
        top = max_line_minor(m).points
        for k in range(3, top + 2):
            fast = has_u2n_minor(m, k).status
            assert fast in (FOUND, ABSENT)
            assert (fast == FOUND) == oracle_u2n(m, k), (m, k)


def test_max_line_monotone_under_minors():
    m = pg(3, 3)
    base = max_line_minor(m).points
    for contract, delete in [(0b1, 0b10), (0, 0b1001), (0b100, 0)]:
        sub = m.minor(contract=contract, delete=delete)
        if sub.rank_full >= 2:
            assert max_line_minor(sub).points <= base


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (4, 3)])
def test_pg_line_minor_is_q_plus_1(q, n):
    res = max_line_minor(pg(n, q))
    assert res.exact and res.points == q + 1


# -- minor isomorphism ---------------------------------------------------------

def test_fano_contains_u23():
    f = pg(3, 2)
    out = minor_isomorphic(f, to_explicit(UniformMatroid(2, 3)),
                           target_name="uniform:2,3")
    assert out.status == FOUND
    assert verify_certificate(out.certificate, f, UniformMatroid(2, 3))
    # descriptor-based replay too
    assert verify_certificate(out.certificate, f)


def test_u24_has_no_u25_minor():
    out = minor_isomorphic(UniformMatroid(2, 4), to_explicit(UniformMatroid(2, 5)))
    assert out.status == ABSENT


def test_pg42_contains_fano_as_hyperplane():
    m = pg(4, 2)
    out = minor_isomorphic(m, to_explicit(pg(3, 2)), target_name="fano")
    assert out.status == FOUND
    cert = out.certificate
    assert verify_certificate(cert, m, pg(3, 2))
    # the found copy with an empty contraction is a restriction to a flat
    if cert.contract == 0:
        image = mask_of(cert.mapping)
        assert m.rank(image) == 3


def test_target_too_large():
    with pytest.raises(TargetTooLarge):
        minor_isomorphic(pg(4, 2), to_explicit(UniformMatroid(3, 10)))


def test_minor_isomorphic_budget():
    out = minor_isomorphic(pg(4, 2), to_explicit(pg(3, 2)), max_nodes=3)
    assert out.status in (FOUND, UNKNOWN)


def test_minor_isomorphic_agrees_with_literal_oracle():
    from matroidlab.harness.oracles import oracle_minor_isomorphic
    import random

    from conftest import random_linear

    hosts = [pg(3, 2), UniformMatroid(3, 7), UniformMatroid(2, 5),
             random_linear(2, 3, 7, seed=17), random_linear(3, 3, 8, seed=18)]
    targets = [UniformMatroid(2, 3), UniformMatroid(2, 4), UniformMatroid(3, 4),
               UniformMatroid(1, 1), UniformMatroid(3, 3)]
    for host in hosts:
        for target in targets:
            fast = minor_isomorphic(host, to_explicit(target))
            slow = oracle_minor_isomorphic(host, target)
            assert (fast.status == FOUND) == slow, (host, target)
            if fast.status == FOUND:
                assert verify_certificate(fast.certificate, host, target)


@pytest.mark.parametrize("i", range(24))
def test_minor_isomorphic_agrees_with_oracle_on_messy_matrices(i):
    # loops, parallel pairs and scaled copies over GF(2), GF(3), GF(4) and
    # GF(8), cut to the oracle's 8 elements; every search is exhaustive
    from matroidlab.harness.oracles import oracle_minor_isomorphic

    m = messy_linear(i)
    host = m.restrict(mask_of(list(bits(m.live))[:8]))
    for target in (UniformMatroid(2, 3), UniformMatroid(2, 4), UniformMatroid(3, 4)):
        fast = minor_isomorphic(host, to_explicit(target))
        assert fast.status in (FOUND, ABSENT)
        assert (fast.status == FOUND) == oracle_minor_isomorphic(host, target)
        if fast.status == FOUND:
            assert verify_certificate(fast.certificate, host, target)


def test_find_pg_restriction_in_nonsimple_host():
    from matroidlab import LinearMatroid

    base = pg(3, 4)
    doubled = LinearMatroid(base.field, base.columns + base.columns[:3])
    hit = find_pg_restriction(doubled, 3, 2)
    assert hit is not None
    from matroidlab import is_projective_geometry
    assert is_projective_geometry(doubled.restrict(hit).simplify()).order == 2


# -- PG restrictions ---------------------------------------------------------------

def test_find_pg_restriction_subfield_fano():
    m = pg(3, 4)
    assert find_pg_restriction(m, 3, 2) == subfield_subgeometry(m, 1)


def test_find_pg_restriction_none_in_uniform():
    assert find_pg_restriction(UniformMatroid(4, 10), 3, 2) is None


def test_find_pg_restriction_pg42_hyperplane():
    m = pg(4, 2)
    hit = find_pg_restriction(m, 3, 2)
    assert hit is not None
    assert m.rank(hit) == 3 and popcount(hit) == 7
    sub = m.restrict(hit)
    from matroidlab import is_projective_geometry
    assert is_projective_geometry(sub.simplify()).order == 2


def test_find_pg_restriction_skipped_flat_is_not_a_silent_no():
    # theta(4, 3) = 21 is past PG_EMBED_LIMIT, so the 31-point plane of
    # PG(2,5) is too dense to search for an embedded PG(2,4)
    with pytest.raises(SizeLimit):
        find_pg_restriction(pg(3, 5), 3, 4)


def test_find_pg_minor_skipped_flat_is_unknown():
    out = find_pg_minor(pg(3, 5), 3, 4)
    assert out.status == UNKNOWN and out.nodes == 1


def test_pg_minor_node_cap_bounds_the_embedding():
    # PG(3,3) has no Fano minor, and the embedding backtrack inside each of
    # its 13-point planes runs long; its steps count against the cap
    start = time.perf_counter()
    out = find_pg_minor(pg(4, 3), 3, 2, max_nodes=1)
    assert out.status == UNKNOWN and out.nodes == 2
    assert time.perf_counter() - start < 1


def test_find_pg_minor_via_contraction():
    m = pg(4, 2)
    out = find_pg_minor(m, 3, 2)
    assert out.status == FOUND
    assert out.certificate["contract"] == 0  # a restriction already exists
    out2 = find_pg_minor(UniformMatroid(4, 9), 3, 2)
    assert out2.status == ABSENT


def test_require_exact_and_decided():
    from matroidlab.errors import BudgetExceeded

    full = max_line_minor(pg(3, 2))
    assert full.require_exact() is full
    cut = max_line_minor(pg(4, 2), max_nodes=2)
    with pytest.raises(BudgetExceeded):
        cut.require_exact()
    undecided = has_u2n_minor(pg(4, 2), 4, max_nodes=1)
    with pytest.raises(BudgetExceeded):
        undecided.require_decided()
    assert has_u2n_minor(pg(3, 2), 4).require_decided().status == ABSENT


def _flats_up_to(m, top):
    return sum(len(m.flats_of_rank(k)) for k in range(top + 1))


@pytest.mark.parametrize("m, want", [(_prime_subgeometry(3, 4), 8),
                                     (_prime_subgeometry(4, 4), 51),
                                     (_prime_subgeometry(3, 9), 14),
                                     (UniformMatroid(4, 8), 37)])
def test_nodes_count_flats_of_corank_two_and_up(m, want):
    # PG(2,2) and PG(3,2) over GF(4), PG(2,3) over GF(9) and U(4,8): no
    # field bound ends these searches, so they visit one contraction set
    # per flat of rank <= r - 2 (its closure)
    res = max_line_minor(m)
    assert res.exact and res.nodes == _flats_up_to(m, m.rank_full - 2) == want
    # the certificate is a corank-2 leaf: its whole surviving ground set
    cert = res.certificate
    assert m.rank(cert.contract) == m.rank_full - 2
    assert cert.line == m.live & ~cert.contract


@pytest.mark.parametrize("n, q, points, nodes", [(3, 2, 3, 2), (4, 2, 3, 3),
                                                 (3, 3, 4, 2)])
def test_field_bound_ends_the_search_on_pg(n, q, points, nodes):
    # the first leaf, one contraction chain deep, already has q + 1 points
    m = pg(n, q)
    res = max_line_minor(m)
    assert (res.points, res.nodes, res.exact) == (points, nodes, True)
    assert verify_certificate(res.certificate, m)


def test_has_u2n_absent_by_field_bound():
    # no minor of a GF(2) matrix has a 4-point line: the search ends at the
    # first 3-point line, after the root and a chain of four points
    out = has_u2n_minor(pg(6, 2), 4)
    assert (out.status, out.nodes) == (ABSENT, 5)


@pytest.mark.parametrize("m, want", [(pg(3, 2), 1), (pg(4, 2), 16),
                                     (UniformMatroid(4, 8), 9)])
def test_pg_minor_absent_nodes_count_flats(m, want):
    out = find_pg_minor(m, 3, 3)
    assert out.status == ABSENT
    assert out.nodes == _flats_up_to(m, m.rank_full - 3) == want


@pytest.mark.parametrize("cap", [0, 1, 2, 7])
def test_node_cap_reports_the_refused_node(cap):
    # PG(3,2) over GF(4) takes 51 nodes, so every cap here refuses one
    res = max_line_minor(_prime_subgeometry(4, 4), max_nodes=cap)
    assert res.nodes == cap + 1 and res.exact is False
    # over GF(2) the field bound ends the search at its third node
    res = max_line_minor(pg(4, 2), max_nodes=cap)
    if cap < 3:
        assert res.nodes == cap + 1 and res.exact is False
    else:
        assert (res.points, res.nodes, res.exact) == (3, 3, True)
