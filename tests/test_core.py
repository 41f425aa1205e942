"""Rank oracle, closure/flat machinery, minors, roundness, certificates."""

import random
import time
import tracemalloc
from itertools import product

import pytest
from conftest import messy_linear, minor_views

from matroidlab import (DirectSum, ExplicitMatroid, HyperplanePairCover,
                        LinearMatroid, MinorEmbedding, Partition, UniformMatroid,
                        bits, field_make, mask_of, pg, popcount, verify_certificate)
from matroidlab.bitset import lowest, spread
from matroidlab.core import contractions
from matroidlab.errors import (InternalContradiction, MalformedCertificate,
                               OutOfRange, OverlapError, PreconditionFailed,
                               RankZero, SizeLimit)
from matroidlab.field import VectorPacking, vector_packing


def random_linear(q, rank, cols, seed):
    rng = random.Random(seed)
    spec = field_make(q)
    return LinearMatroid(spec, [tuple(rng.randrange(q) for _ in range(rank))
                                for _ in range(cols)])


def brute_partition_round(m):
    """Independent roundness check: try every 2-partition of the ground set."""
    elems = list(bits(m.live))
    r = m.rank_full
    n = len(elems)
    for code in range(1, 1 << (n - 1)):
        a = mask_of(e for i, e in enumerate(elems) if code >> i & 1)
        b = m.live & ~a
        if b and m.rank(a) < r and m.rank(b) < r:
            return False
    return True


# -- closure ----------------------------------------------------------------

def test_closure_fano_pair_gives_line():
    f = pg(3, 2)
    line = f.closure(0b11)
    assert popcount(line) == 3
    assert f.rank(line) == 2


def test_closure_of_ground_set():
    for m in (pg(3, 2), UniformMatroid(3, 6)):
        assert m.closure(m.live) == m.live


def test_closure_u36_pair_is_closed():
    u = UniformMatroid(3, 6)
    assert u.closure(0b11) == 0b11


def test_closure_out_of_range():
    with pytest.raises(OutOfRange):
        UniformMatroid(2, 3).closure(1 << 5)


# -- points / epsilon ---------------------------------------------------------

def test_points_pg33():
    assert pg(3, 3).epsilon() == 13


def test_points_all_parallel():
    assert UniformMatroid(1, 3).epsilon() == 1


def test_points_with_loop_and_parallel_pair():
    m = LinearMatroid(field_make(2), [(1, 0), (1, 0), (0, 1), (0, 0)])
    pts = m.points()
    assert len(pts) == 2
    assert pts[0] == 0b11  # the parallel pair
    assert m.loops() == 0b1000


def test_linear_points_match_generic_path():
    # the column-normalization fast path must agree with the rank-oracle route
    from matroidlab.core import Matroid

    for seed in range(6):
        m = random_linear(3, 3, 8, seed)
        assert m.points() == Matroid._points_impl(m, m.live)


def test_epsilon_within():
    f = pg(3, 2)
    assert f.epsilon(0b111) >= 2
    assert f.epsilon(0) == 0


# -- lines and flats ------------------------------------------------------------

def test_lines_fano():
    assert len(pg(3, 2).lines(3)) == 7


def test_lines_u25_single():
    assert pg(2, 5).lines(3) == [pg(2, 5).live]


def test_lines_u36_no_long():
    assert UniformMatroid(3, 6).lines(3) == []


def gaussian_binomial(n, k, q):
    """Independent count of rank-k flats of PG(n-1, q)."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def test_flats_pg42_hyperplanes():
    m = pg(4, 2)
    hyps = m.flats_of_rank(3)
    assert len(hyps) == gaussian_binomial(4, 3, 2) == 15
    assert all(popcount(h) == 7 for h in hyps)


def test_flats_rank1_are_points():
    u = UniformMatroid(2, 4)
    assert u.flats_of_rank(1) == [1, 2, 4, 8]


# -- local connectivity ------------------------------------------------------------

def test_connectivity_two_fano_lines():
    f = pg(3, 2)
    lines = f.lines(3)
    assert f.local_connectivity(lines[0], lines[1]) == 1


def test_connectivity_skew_spans():
    m = pg(4, 2)
    # spans of {e1,e2} and {e3,e4}: columns are unit vectors at known slots
    cols = {c: i for i, c in enumerate(m.columns)}
    a = (1 << cols[(0, 0, 0, 1)]) | (1 << cols[(0, 0, 1, 0)])
    b = (1 << cols[(0, 1, 0, 0)]) | (1 << cols[(1, 0, 0, 0)])
    # the lines span{e1,e2} and span{e3,e4} of PG(3,2) are disjoint and skew
    assert m.closure(a) & m.closure(b) == 0
    assert m.is_skew(m.closure(a), m.closure(b))
    assert m.local_connectivity(a, b) == 0


def test_connectivity_contained_span():
    f = pg(3, 2)
    a = 0b11
    b = f.closure(a) & ~a
    assert f.local_connectivity(a, b) == f.rank(b)


def test_connectivity_symmetric_nonnegative():
    # every (a, b) pair of PG(2,2)
    f = pg(3, 2)
    for a in range(128):
        for b in range(128):
            assert f.local_connectivity(a, b) == f.local_connectivity(b, a) >= 0


def test_skew_is_subset_monotone():
    # every subset of a, for every skew pair (a, b) of PG(2,2)
    f = pg(3, 2)
    cases = 0
    for a in range(128):
        for b in range(128):
            if not f.is_skew(a, b):
                continue
            sub = a
            while True:
                assert f.is_skew(sub, b)
                cases += 1
                if not sub:
                    break
                sub = (sub - 1) & a
    assert cases == 3182


# -- minors ---------------------------------------------------------------------

def test_fano_contract_simplify():
    f = pg(3, 2)
    minor = f.contract(1)
    # independent check of the parallel classes of M/e via rank queries
    classes = {}
    for e in bits(minor.live):
        for rep in classes:
            if f.rank(1 | (1 << e) | (1 << rep)) == 2:
                classes[rep].append(e)
                break
        else:
            classes[e] = [e]
    assert len(classes) == 3
    assert minor.epsilon() == 3
    simple = minor.simplify()
    assert simple.size == 3 and simple.rank_full == 2


def test_identity_minor():
    u = UniformMatroid(3, 6)
    view = u.minor(0, 0)
    for x in range(1 << 6):
        assert view.rank(x) == u.rank(x)


def test_u36_contract_is_u25():
    u = UniformMatroid(3, 6)
    v = u.contract(1)
    w = UniformMatroid(2, 5)
    elems = list(bits(v.live))
    for x in range(1 << 5):
        shifted = mask_of(elems[i] for i in bits(x))
        assert v.rank(shifted) == w.rank(x)


def test_minor_composition_matches_union():
    m = random_linear(2, 4, 9, seed=3)
    c1, c2, d1 = 0b1, 0b100, 0b10
    once = m.minor(contract=c1, delete=d1).minor(contract=c2)
    direct = m.minor(contract=c1 | c2, delete=d1)
    assert once.live == direct.live
    for x in range(1 << 9):
        sub = x & once.live
        assert once.rank(sub) == direct.rank(sub)


def test_minor_overlap_rejected():
    with pytest.raises(OverlapError):
        UniformMatroid(2, 4).minor(contract=0b11, delete=0b10)


def test_simplify_idempotent_and_preserves_epsilon():
    m = LinearMatroid(field_make(2), [(1, 0), (1, 0), (0, 1), (0, 0), (1, 1)])
    s = m.simplify()
    assert s.size == m.epsilon() == 3
    assert s.simplify().live == s.live
    assert s.epsilon() == m.epsilon()


# -- rank axioms ---------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: pg(3, 2),
    lambda: UniformMatroid(2, 4),
    lambda: random_linear(2, 4, 9, seed=1),
    lambda: random_linear(3, 3, 7, seed=2),
    lambda: DirectSum([UniformMatroid(2, 3), UniformMatroid(2, 3)]),
])
def test_rank_axioms_exhaustive_small(make):
    m = make()
    elems = list(bits(m.live))
    n = len(elems)
    assert n <= 12
    expand = lambda x: mask_of(elems[i] for i in bits(x))
    for x in range(1 << n):
        mx = expand(x)
        rx = m.rank(mx)
        assert 0 <= rx <= popcount(mx)
    rng = random.Random(0)
    for _ in range(4000):
        x, y = expand(rng.randrange(1 << n)), expand(rng.randrange(1 << n))
        rx, ry = m.rank(x), m.rank(y)
        assert m.rank(x | y) + m.rank(x & y) <= rx + ry
        if x & ~y == 0:
            assert rx <= ry


def test_rank_axioms_randomized_pg42():
    m = pg(4, 2)
    rng = random.Random(42)
    for _ in range(10_000):
        x = rng.randrange(1 << 15)
        y = rng.randrange(1 << 15)
        assert m.rank(x | y) + m.rank(x & y) <= m.rank(x) + m.rank(y)


def test_explicit_matches_linear_on_all_subsets():
    for seed in range(4):
        m = random_linear(2, 4, 10, seed=seed)
        ex = ExplicitMatroid.from_matroid(m, verify=True)
        for x in range(1 << 10):
            assert ex.rank(x) == m.rank(x)
    wide = random_linear(3, 5, 12, seed=11)
    ex = ExplicitMatroid.from_matroid(wide, verify=True)
    for x in range(1 << 12):
        assert ex.rank(x) == wide.rank(x)


def test_gf2_kernel_matches_gf4_kernel():
    # a 0/1 matrix has the same ranks, closures and contraction points over
    # GF(2) (xor against leading bits) and over GF(4) (the packed GF(2^k)
    # kernel), since GF(2) is a subfield of GF(4)
    for seed in range(5):
        m = random_linear(2, 5, 11, seed=seed)
        wide = LinearMatroid(field_make(4), m.columns)
        for x in range(1 << 11):
            assert m.rank(x) == wide.rank(x)
            assert m.closure(x) == wide.closure(x)
            assert m.contract(x).points() == wide.contract(x).points()


# -- the packed GF(q) kernel against the list elimination it replaced ---------

def _ref_normal(f, v, basis):
    """List elimination of v modulo span(basis), scaled to 1 at its first
    nonzero entry, as (pivot, row); None if v lies in the span.  Basis rows
    are (pivot, row) in pivot order, zero before the pivot and 1 at it."""
    q, add, mul, neg = f.q, f.add_flat, f.mul_flat, f.neg
    v = list(v)
    for pivot, u in basis:
        c = v[pivot]
        if c:
            cn = neg[c] * q
            for i in range(pivot, len(v)):
                ui = u[i]
                if ui:
                    v[i] = add[v[i] * q + mul[cn + ui]]
    for i, a in enumerate(v):
        if a:
            iv = f.inv[a] * q
            return i, tuple(mul[iv + b] for b in v)
    return None


def _ref_echelon(m, subset):
    basis = []
    for e in bits(subset):
        v = _ref_normal(m.field, m.columns[e], basis)
        if v:
            basis.append(v)
            basis.sort()
    return basis


def _ref_keyed_points(m, contract):
    """The points of M/contract as {(pivot, row): class} in order of least
    element, keyed by `_ref_normal`."""
    basis = _ref_echelon(m, contract)
    classes = {}
    for e in bits(m.live & ~contract):
        key = _ref_normal(m.field, m.columns[e], basis)
        if key:
            classes[key] = classes.get(key, 0) | 1 << e
    return classes


def _ref_contraction_points(m, contract):
    return list(_ref_keyed_points(m, contract).values())


KERNEL_FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 64, 81, 121, 125,
                 128, 243, 256)


def _seeded_kernel_columns(spec, height, rng):
    """A few random columns plus a zero column, a repeated column and a
    nonzero multiple of a column."""
    q = spec.q
    cols = [tuple(rng.randrange(q) for _ in range(height))
            for _ in range(rng.randint(max(2, height - 1), height + 1))]
    c = rng.randrange(1, q)
    cols += [(0,) * height, rng.choice(cols),
             tuple(spec.mul(c, a) for a in rng.choice(cols))]
    rng.shuffle(cols)
    return cols


@pytest.mark.parametrize("q, whole", [
    *(pytest.param(q, None, id=str(q)) for q in KERNEL_FIELDS),
    # whole-vector tables at the cap's edge: every nonzero vector
    *(pytest.param(q, h, id=f"{q}-whole-h{h}") for q, h in [(3, 8), (4, 6), (8, 4), (9, 4)]),
])
def test_table_normal_matches_scale(q, whole):
    # the table rescaling (by chunks, or whole vectors) against the
    # per-coordinate route by the inverse of the leading coordinate
    spec = field_make(q)
    if whole:
        pk = VectorPacking(spec, whole)
        table = pk.normals()
        assert len(table) == q ** whole - 1
        for col in product(range(q), repeat=whole):
            lead = next((i for i, a in enumerate(col) if a), None)
            if lead is not None:
                v = pk.pack(col)
                assert table[v] == pk.normal(v) == pk.scale(v, spec.inv[col[lead]])
        return
    rng = random.Random(700 + q)
    for height in range(1, 9):
        pk = vector_packing(spec, height)
        for _ in range(40):
            col = [rng.randrange(q) for _ in range(height)]
            lead = rng.randrange(height)
            col[:lead + 1] = [0] * lead + [rng.randrange(1, q)]
            v = pk.pack(col)
            assert pk.normal(v) == pk.scale(v, spec.inv[col[lead]])
            assert pk.normal(v) >> lead * pk.width & pk.mask == 1


@pytest.mark.parametrize("q, height", [(2, 13), (3, 9), (4, 7), (8, 5), (9, 5)])
def test_no_normal_table_above_the_cap_or_over_gf2(q, height):
    # GF(2) and a packing one height above the cap rescale by chunks and
    # build no table, however many normal forms they are asked for
    from matroidlab.field import NORMAL_TABLE_CAP

    spec = field_make(q)
    assert q == 2 or q ** (height - 1) <= NORMAL_TABLE_CAP < q ** height
    pk = VectorPacking(spec, height)
    assert pk.normals() is None
    rng = random.Random(q)
    for _ in range(200):
        col = [rng.randrange(q) for _ in range(height)]
        col[rng.randrange(height)] = rng.randrange(1, q)
        lead = next(i for i, a in enumerate(col) if a)
        v = pk.pack(col)
        assert pk.normal(v) == pk.chunk_normal(v) == pk.scale(v, spec.inv[col[lead]])
    assert pk.normals() is None and pk._normals is None


def test_normal_table_is_built_by_points_not_by_rank(monkeypatch):
    # building a matroid and asking ranks (whose basis rows take normal
    # forms) builds no table; the first projection builds q^h - 1 entries
    from matroidlab import field
    from matroidlab.core import LinearMatroid

    monkeypatch.setattr(field, "_PACKINGS", {})
    rng = random.Random(9)
    m = LinearMatroid(field_make(9), [[rng.randrange(9) for _ in range(4)]
                                      for _ in range(30)])
    assert m.rank(m.live) == 4 and m.rank(0b10110) == 3
    assert m.closure(0b11) & 0b11 == 0b11
    assert m._pack._normals is None
    m.points()
    assert len(m._pack._normals) == 9 ** 4 - 1


@pytest.mark.parametrize("q", [243, 256])
def test_normal_tables_are_bounded(q, monkeypatch):
    # one table per leading pattern c != 1, so q - 2 of them, each keyed by
    # the valid patterns of one chunk (at most max(2^10, q)) and built from
    # the field's products alone
    spec = field_make(q)
    pk = VectorPacking(spec, 3)
    monkeypatch.setattr(VectorPacking, "scale", None)
    for a in range(1, q):
        for v in (pk.pack((0, a, 0)), pk.pack((a, 1, 2)), pk.pack((0, 0, a))):
            got = pk.normal(v)
            lead = ((got & -got).bit_length() - 1) // pk.width * pk.width
            assert got >> lead & pk.mask == 1
    assert len(pk._scalings) == q - 2
    valid = set(pk.pattern)
    for table in pk._scalings.values():
        assert len(table) <= max(1 << 10, q)
        assert set(table) == valid  # one coordinate per chunk at these q


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_walk_keys_match_list_elimination(q):
    # every node of a full-depth walk refines its keyed points from its
    # parent's (`_project_child`); keys and classes against list
    # elimination, which over GF(2) runs on the rows reversed, since the
    # packed GF(2) kernel clears the highest bits rather than the lowest
    spec = field_make(q)
    rng = random.Random(800 + q)
    for height in (1, 2, 3, 4):
        cols = _seeded_kernel_columns(spec, height, rng)
        m = LinearMatroid(spec, cols)
        ref = LinearMatroid(spec, [c[::-1] for c in cols]) if q == 2 else m
        pk = m._pack
        for contract, _, minor in contractions(m, m.rank_full):
            rows = [tuple(pk.elem[key >> i * pk.width & pk.mask]
                          for i in range(height)) for key in minor._keyed_points()]
            if q == 2:
                rows = [row[::-1] for row in rows]
            want = _ref_keyed_points(ref, contract)
            assert rows == [row for _, row in want]
            assert list(minor._keyed_points().values()) == list(want.values())


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_packed_kernel_matches_list_elimination(q):
    # ranks, closures and contraction points on every subset of seeded
    # matrices of heights 1-5, each with a zero column, a repeated column
    # and a nonzero multiple of a column; swept twice, the second time with
    # the rank memo emptied and the basis rows of the first sweep cached
    spec = field_make(q)
    rng = random.Random(q)
    for height in (1, 2, 3, 4, 5):
        m = LinearMatroid(spec, _seeded_kernel_columns(spec, height, rng))
        for sweep in range(2):
            m._cache = {0: 0}
            for x in range(1 << m.n):
                basis = _ref_echelon(m, x)
                assert m.rank(x) == len(basis)
                assert m.closure(x) == mask_of(
                    e for e in bits(m.live) if x >> e & 1
                    or _ref_normal(spec, m.columns[e], basis) is None)
                assert m.contract(x).points() == _ref_contraction_points(m, x)
        assert bool(m._rows) == (q > 2 and m.rank_full > 0)


def test_pure_rank_call_builds_no_row_it_does_not_read(monkeypatch):
    # a rank call with no basis to return counts the column that brings
    # the rank to nrows without building its row, and takes the others
    # from the matroid's row cache once built; an echelon basis keeps all
    built = []
    row = VectorPacking.row
    monkeypatch.setattr(VectorPacking, "row", lambda pk, u: built.append(u) or row(pk, u))
    m = LinearMatroid(field_make(3), pg(4, 3).columns)
    r = m.nrows
    assert m.rank(m.live) == r and 0 < len(built) <= r - 1
    built.clear()
    assert m.rank(m.live & ~(1 << m.n - 1)) == r and not built
    assert len(m._echelon(m.live)) == r and len(built) == 1


@pytest.mark.parametrize("q, height", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (7, 2),
                                       (8, 2), (9, 2), (27, 1)])
def test_row_cache_is_bounded_by_the_nonzero_vectors(q, height):
    # every nonzero vector of GF(q)^height as a column: after a full-depth
    # walk and a seeded subset sweep the cache holds at most q^height - 1
    # rows, each the row of its key's normal form
    spec = field_make(q)
    cols = [c for c in product(range(q), repeat=height) if any(c)]
    m = LinearMatroid(spec, cols)
    for _, _, minor in contractions(m, m.rank_full):
        minor._keyed_points()
    rng = random.Random(q * 10 + height)
    for _ in range(400):
        x = rng.getrandbits(m.n)
        m.rank(x)
        m.closure(x)
        m._extend_basis(x & rng.getrandbits(m.n), m.live, m.nrows)
    pk = m._pack
    assert 0 < len(m._rows) <= q ** height - 1
    for v, (off, mults) in m._rows.items():
        want_off, want = pk.row(pk.normal(v))
        assert v and off == want_off
        assert all(mults[c] == want[c] for c in pk.inv)  # every nonzero pattern


# -- linear fast paths against the generic rank-oracle routes -------------------

MESSY = [pytest.param(i, id=f"gf{(2, 3, 4, 8)[i % 4]}-{i}") for i in range(24)]


def _subsets(view, rng, count=12):
    elems = list(bits(view.live))
    return [0, view.live] + [mask_of(e for e in elems if rng.random() < 0.4)
                             for _ in range(count)]


def _check_closure_within(view, rng):
    """For every subset x: cl(x) & within from the view's own route, and
    from the generic route given `within`, against the generic closure
    over the whole ground set cut to `within`."""
    from matroidlab.core import Matroid

    elems = list(bits(view.live))
    masks = [view.live, 0] + _subsets(view, rng, count=3)[2:]
    for x in range(1 << len(elems)):
        x = spread(x, elems)
        full = Matroid._closure_impl(view, x, view.live)
        assert view.closure(x) == full
        for within in masks:
            assert view._closure_impl(x, within) == full & within
            assert Matroid._closure_impl(view, x, within) == full & within


@pytest.mark.parametrize("i", MESSY)
def test_linear_closure_matches_generic_route(i):
    m = messy_linear(i)
    rng = random.Random(i)
    for view in minor_views(m, rng):
        _check_closure_within(view, rng)


def test_closure_within_on_a_direct_sum_view():
    m = DirectSum([UniformMatroid(2, 4), pg(3, 2), UniformMatroid(1, 2)])
    _check_closure_within(m.minor(contract=1 << 5, delete=1 << 0 | 1 << 11),
                          random.Random(5))


@pytest.mark.parametrize("i", MESSY)
def test_extend_basis_matches_generic_route(i):
    # the greedy extension of a base set: one echelon basis extended a
    # column at a time against a rank call per element; at every limit
    from matroidlab.core import Matroid

    m = messy_linear(i)
    rng = random.Random(500 + i)
    for view in minor_views(m, rng):
        for base in _subsets(view, rng, count=4):
            for scan in _subsets(view, rng, count=4):
                for limit in range(view.rank_full + 1):
                    want = Matroid._extend_basis(view, base, scan, limit)
                    assert view._extend_basis(base, scan, limit) == want
                    assert popcount(want) <= limit
                    assert view.rank(base | want) == view.rank(base) + popcount(want)


def test_view_closure_reduces_only_its_own_columns(monkeypatch):
    # a view's closure tests its own elements, not every column of the root:
    # the scan reduces one column per element of live - x (the echelon basis
    # of x and the contract set reduces inline in _rank_tables, not counted)
    from matroidlab.core import LinearMatroid

    m = pg(4, 3)
    calls = {"_reduce_tables": 0, "_normal_tables": 0}
    for name in calls:
        orig = getattr(LinearMatroid, name)

        def counted(*args, name=name, orig=orig):
            calls[name] += 1
            return orig(*args)
        monkeypatch.setattr(LinearMatroid, name, counted)
    for view, x in [(m.restrict(mask_of(range(0, 40, 5))), 0b100001),
                    (m.contract(1 << 2).restrict(mask_of(range(10, 19))), 1 << 11)]:
        for key in calls:
            calls[key] = 0
        view.closure(x)
        assert calls["_reduce_tables"] - calls["_normal_tables"] == popcount(view.live & ~x)


@pytest.mark.parametrize("i", MESSY)
def test_view_points_match_generic_route(i):
    from matroidlab.core import Matroid

    m = messy_linear(i)
    rng = random.Random(100 + i)
    for view in minor_views(m, rng):
        assert view.points() == Matroid._points_impl(view, view.live)
        for w in _subsets(view, rng):
            assert view.points(w) == Matroid._points_impl(view, w)


def _cached_views(m, rng):
    """The matroid, a restriction, a contraction and a restriction of a
    contraction: the views that answer points(w) from cached classes."""
    elems = list(bits(m.live))
    a, b = (1 << p for p in rng.sample(elems, 2))
    keep = mask_of(e for e in elems if rng.random() < 0.7)
    return [m, m.restrict(keep), m.contract(a),
            m.contract(a | b).restrict(keep & ~(a | b))]


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda i=i: messy_linear(i), id=f"messy-{i}") for i in range(24)),
    pytest.param(lambda: pg(4, 3), id="pg4q3"),
])
def test_cached_points_match_generic_route(make):
    # the points of M|w are M's classes cut to w; asked twice, the second
    # answer comes from the cache and must be the same, order included
    from matroidlab.core import Matroid

    m = make()
    rng = random.Random(m.n)
    for view in _cached_views(m, rng):
        masks = _subsets(view, rng, count=20)
        want = [Matroid._points_impl(view, w) for w in masks]
        assert [view.points(w) for w in masks] == want
        assert [view.points(w) for w in masks] == want


@pytest.mark.parametrize("q", [2, 3])
def test_repeat_points_make_no_elimination(q, monkeypatch):
    # GF(2) reduces against leading bits, GF(3) through the packed slot kernel
    from matroidlab.core import LinearMatroid

    m = pg(4, q)
    rng = random.Random(q)
    views = _cached_views(m, rng)
    masks = [_subsets(view, rng) for view in views]
    first = [[view.points(w) for w in ws] for view, ws in zip(views, masks)]
    # `_project` is counted too: a refinement from a parent's classes
    # reduces inline, with no `_normal_tables` or `_reduce_gf2` call
    calls = {"_normal_tables": 0, "_reduce_gf2": 0, "_rank_impl": 0, "_project": 0}
    for name in calls:
        orig = getattr(LinearMatroid, name)

        def counted(*args, name=name, orig=orig):
            calls[name] += 1
            return orig(*args)
        monkeypatch.setattr(LinearMatroid, name, counted)
    again = [[view.points(w) for w in ws] for view, ws in zip(views, masks)]
    assert again == first
    assert calls == {"_normal_tables": 0, "_reduce_gf2": 0, "_rank_impl": 0, "_project": 0}


@pytest.mark.parametrize("i", MESSY)
def test_flats_of_rank_match_brute_force(i):
    from matroidlab.harness.oracles import to_explicit

    m = messy_linear(i)
    for view in minor_views(m, random.Random(200 + i)):
        table = to_explicit(view)
        t = table.table
        elems = list(bits(view.live))
        full = (1 << table.n) - 1
        flats = {}
        for x in range(full + 1):  # closed: every other element raises the rank
            if all(t[x | 1 << e] > t[x] for e in range(table.n) if not x >> e & 1):
                flats.setdefault(t[x], []).append(spread(x, elems))
        for k in range(view.rank_full + 1):
            assert view.flats_of_rank(k) == sorted(flats[k])


def test_flats_of_rank_closes_each_cover_once(monkeypatch):
    # PG(3,3) has 40 points: the walk closes only the empty set, and takes
    # the points of each flat of rank < 2 once (1 + 40 projections), reading
    # every cover's closure off its parent's point classes
    from matroidlab.core import LinearMatroid, Matroid

    calls = {"closure": 0, "_project": 0}

    def count(cls, name):
        orig = getattr(cls, name)

        def counted(*args):
            calls[name] += 1
            return orig(*args)
        monkeypatch.setattr(cls, name, counted)

    count(Matroid, "closure")
    count(LinearMatroid, "_project")
    lines = pg(4, 3).flats_of_rank(2)
    assert calls == {"closure": 1, "_project": 41}
    assert len(lines) == 130 and all(popcount(line) == 4 for line in lines)


def _check_walk(m):
    """Every node of a full-depth walk against the generic rank-oracle
    routes: the closure it reads off its parent, once per flat, its rank
    (from the depth) and its points."""
    from matroidlab.core import Matroid, contractions

    seen = set()
    for contract, closed, minor in contractions(m, m.rank_full):
        assert m.rank(contract) == popcount(contract)
        assert minor.rank_full == m.rank_full - popcount(contract)
        assert closed == Matroid._closure_impl(m, contract, m.live) and closed not in seen
        assert minor.live == m.live & ~contract
        assert minor.points() == Matroid._points_impl(minor, minor.live)
        seen.add(closed)
    assert m.live in seen


@pytest.mark.parametrize("i", MESSY)
def test_walk_matches_generic_routes(i):
    m = messy_linear(i)
    for view in minor_views(m, random.Random(300 + i)):
        _check_walk(view)


@pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)])
def test_walk_matches_generic_routes_on_pg(n, q):
    _check_walk(pg(n, q))


def _visited_set_walk(m):
    """The walk as a search with a set of visited flats: every class of
    M/C spawns a child unless its closure was reached before.  Returns the
    (contract, closure) sequence of a full-depth walk."""
    from matroidlab.core import MinorView

    root = m.closure(0)
    visited = {root}
    stack = [(0, root, 0, None)]
    out = []
    while stack:
        contract, closed, depth, parent = stack.pop()
        out.append((contract, closed))
        if depth < m.rank_full:
            keyed = MinorView(m, contract, 0, parent, depth)._keyed_points()
            children = []
            for key, c in keyed.items():
                if closed | c not in visited:
                    visited.add(closed | c)
                    children.append((contract | c & -c, closed | c, depth + 1,
                                     (keyed, key)))
            stack.extend(reversed(children))
    return out


def _greedy_basis(m, flat):
    basis = 0
    for e in bits(flat):
        if m.rank(basis | 1 << e) > popcount(basis):
            basis |= 1 << e
    return basis


def _check_canonical_walk(m):
    walk = [(contract, closed)
            for contract, closed, _ in contractions(m, m.rank_full)]
    assert walk == _visited_set_walk(m)
    return walk


@pytest.mark.parametrize("i", MESSY)
def test_walk_without_visited_set_matches_visited_set_walk(i):
    # every contract set is the greedy basis of its flat, and the sequence is
    # the one a walk keeping every flat it reached would yield
    m = messy_linear(i)
    for view in minor_views(m, random.Random(300 + i)):
        for contract, closed in _check_canonical_walk(view):
            assert contract == _greedy_basis(view, closed)


@pytest.mark.parametrize("make", [lambda: pg(5, 3), lambda: pg(6, 2),
                                  lambda: UniformMatroid(4, 8)])
def test_walk_without_visited_set_matches_on_large_roots(make):
    _check_canonical_walk(make())


@pytest.mark.parametrize("make", [
    lambda: UniformMatroid(3, 7),
    lambda: DirectSum([UniformMatroid(2, 4), pg(3, 2), UniformMatroid(1, 2)]),
    lambda: ExplicitMatroid.from_matroid(random_linear(3, 3, 8, seed=5)),
    lambda: DirectSum([pg(3, 3), UniformMatroid(2, 3)]).contract(1),
])
def test_walk_matches_generic_routes_off_linear_roots(make):
    _check_walk(make())


def test_extend_to_hyperplane_raises_on_an_inconsistent_table():
    # every element alone has the full rank 3, so nothing extends the empty
    # flat towards a hyperplane: a contradiction, not an endless loop
    m = ExplicitMatroid(3, [0] + [3] * 7, verify=False)
    with pytest.raises(InternalContradiction):
        m._extend_to_hyperplane(0, 0)


@pytest.mark.parametrize("cols, error, message", [
    ([(1, 0), (1,), (0, 1)], PreconditionFailed, "column 1 has wrong height"),
    ([(1, 0), (0, 1), (3, 1)], OutOfRange, "column 2 has entries outside 0..2"),
    ([(1, 0), (0, -1)], OutOfRange, "column 1 has entries outside 0..2"),
    # two bad columns: the first one is named, whichever check it fails
    ([(1, 0), (0, 5), (1, 1, 1)], OutOfRange, "column 1 has entries outside 0..2"),
    ([(1, 0), (0, 1, 0), (-1, 1)], PreconditionFailed, "column 1 has wrong height"),
])
def test_linear_rejects_bad_entries_naming_the_first_bad_column(cols, error, message):
    with pytest.raises(error) as info:
        LinearMatroid(field_make(3), cols)
    assert str(info.value) == message


def test_explicit_rejects_bad_table():
    u = UniformMatroid(2, 4)
    table = list(ExplicitMatroid.from_matroid(u).table)
    table[0b1111] = 3  # break submodularity/monotone structure
    with pytest.raises(PreconditionFailed):
        ExplicitMatroid(4, table)


def test_direct_sum_ranks():
    ds = DirectSum([UniformMatroid(2, 3), UniformMatroid(1, 2)])
    assert ds.rank_full == 3
    assert ds.rank(ds.block_mask(0)) == 2
    assert ds.rank(ds.block_mask(1)) == 1
    assert ds.size == 5


# -- roundness -------------------------------------------------------------------

def test_round_u22_with_witness():
    u = UniformMatroid(2, 2)
    ok, cover = u.roundness()
    assert not ok
    part = u.non_round_partition()
    assert {part.part_a, part.part_b} == {0b01, 0b10}
    assert verify_certificate(cover, u)
    assert verify_certificate(part, u)


def test_round_u23():
    assert UniformMatroid(2, 3).is_round()


def test_round_fano_exhaustive():
    f = pg(3, 2)
    assert f.is_round()
    assert brute_partition_round(f)


@pytest.mark.parametrize("make", [
    lambda: UniformMatroid(2, 2),
    lambda: UniformMatroid(2, 3),
    lambda: UniformMatroid(3, 6),
    lambda: UniformMatroid(1, 1),
    lambda: pg(3, 2),
    lambda: pg(3, 3),
    lambda: DirectSum([UniformMatroid(2, 3), UniformMatroid(2, 3)]),
    lambda: DirectSum([UniformMatroid(1, 1), UniformMatroid(2, 4)]),
    lambda: random_linear(2, 4, 9, seed=5),
    lambda: random_linear(3, 4, 9, seed=6),
    lambda: random_linear(2, 5, 12, seed=7),
])
def test_roundness_matches_brute_force(make):
    m = make()
    assert m.is_round() == brute_partition_round(m)


@pytest.mark.parametrize("i", MESSY)
def test_roundness_matches_oracle_on_messy_views(i):
    # every 2-partition, tried by the oracle, against the hyperplane-pair
    # search on the packed kernels: verdicts agree, and each witness replays
    from matroidlab.harness.oracles import oracle_roundness

    m = messy_linear(i)
    for view in _cached_views(m, random.Random(300 + i)):
        if view.rank_full == 0:
            with pytest.raises(RankZero):
                view.roundness()
            continue
        slow, witness = oracle_roundness(view)
        assert view.is_round() == slow
        part = view.non_round_partition()
        assert (part is None) == (witness is None)
        if part is not None:
            assert verify_certificate(part, view)
            assert verify_certificate(witness, view)
            assert verify_certificate(view.roundness()[1], view)


def test_round_rank_zero_rejected():
    loops = LinearMatroid(field_make(2), [(0,), (0,)])
    with pytest.raises(RankZero):
        loops.roundness()


def test_round_certificate_is_hyperplane_pair():
    ds = DirectSum([UniformMatroid(2, 3), UniformMatroid(2, 3)])
    ok, cover = ds.roundness()
    assert not ok
    r = ds.rank_full
    assert ds.rank(cover.hyperplane_a) == r - 1
    assert ds.rank(cover.hyperplane_b) == r - 1
    assert cover.hyperplane_a | cover.hyperplane_b == ds.live


def test_roundness_runs_past_the_recursion_limit():
    # the cells grow one element per step, 599 steps deep before B opens
    u = UniformMatroid(600, 1000)
    ok, cover = u.roundness()
    assert not ok
    assert verify_certificate(cover, u)


def _recursive_roundness(m):
    """The recursive hyperplane-pair search that `Matroid.roundness`
    replaced, extending each cell to a hyperplane one element at a time."""
    r = m.rank_full
    if r == 0:
        raise RankZero("roundness is undefined at rank 0")
    visited = set()

    def grow(cell, e):
        cand = cell | (1 << e)
        return None if m.rank(cand) >= r else m.closure(cand)

    def search(side_a, side_b):
        uncovered = m.live & ~(side_a | side_b)
        if not uncovered:
            return side_a, side_b
        key = (side_a, side_b) if side_a <= side_b else (side_b, side_a)
        if key in visited:
            return None
        visited.add(key)
        e = lowest(uncovered)
        for cell, other, flip in ((side_a, side_b, False), (side_b, side_a, True)):
            grown = grow(cell, e)
            if grown is None:
                continue
            found = search(grown, other) if not flip else search(other, grown)
            if found:
                return found
        return None

    def extend(flat):
        while m.rank(flat) < r - 1:
            e = next(e for e in bits(m.live & ~flat) if m.rank(flat | (1 << e)) < r)
            flat = m.closure(flat | (1 << e))
        return flat

    loops = m.closure(0)
    start = m.closure(1 << lowest(m.live & ~loops))
    hit = search(start, loops) if m.rank(start) < r else None
    if hit is None:
        return True, None
    return False, HyperplanePairCover(extend(hit[0]), extend(hit[1]))


def _uniforms(max_n):
    return [UniformMatroid(r, n) for n in range(1, max_n + 1) for r in range(n + 1)]


def _roundness_inputs():
    for i in range(24):
        m = messy_linear(i)
        for view in minor_views(m, random.Random(500 + i)):
            yield f"messy-{i}/{view!r}", view
    for left in _uniforms(4):
        for right in _uniforms(4):
            yield f"{left!r}+{right!r}", DirectSum([left, right])
    for u in _uniforms(8):
        yield repr(u), u


def test_roundness_matches_the_recursive_search(monkeypatch):
    # the same verdict and the same cover, on the messy matrices and their
    # views, direct sums of uniform matroids and U(r, n) for n <= 8, with
    # no more public rank and closure calls
    from matroidlab.core import Matroid

    calls = [0]
    for name in ("rank", "closure"):
        def counted(self, subset, _call=getattr(Matroid, name)):
            calls[0] += 1
            return _call(self, subset)
        monkeypatch.setattr(Matroid, name, counted)
    checked = 0
    for name, m in _roundness_inputs():
        if m.rank_full == 0:
            with pytest.raises(RankZero):
                m.roundness()
            continue
        calls[0] = 0
        want = _recursive_roundness(m)
        before = calls[0]
        calls[0] = 0
        assert m.roundness() == want, name
        assert calls[0] <= before, name
        checked += 1
    assert checked > 300


def _visited_set_roundness(m):
    """The stack loop `Matroid.roundness` had before it carried independent
    sets: a rank call before each growth, cells closed from scratch, a set
    of the (unordered) pairs already expanded, and a rank check before a
    cell is extended to its hyperplane."""
    r = m.rank_full
    live = m.live
    loops = m.closure(0)
    first = live & ~loops
    start = m.closure(first & -first)
    stack = [(start, loops, 0)] if m.rank(start) < r else []
    visited = set()
    while stack:
        a, b, e = stack.pop()
        if e:
            if m.rank(b | e) < r:
                stack.append((a, m.closure(b | e), 0))
            continue
        uncovered = live & ~(a | b)
        if not uncovered:
            break
        key = (a, b) if a <= b else (b, a)
        if key in visited:
            continue
        visited.add(key)
        e = uncovered & -uncovered
        stack.append((a, b, e))
        if m.rank(a | e) < r:
            stack.append((m.closure(a | e), b, 0))
    else:
        return True, None

    def extend(flat):
        k = m.rank(flat)
        if k < r - 1:
            flat = m.closure(flat | m._extend_basis(flat, live & ~flat, r - 1 - k))
        return flat

    return False, HyperplanePairCover(extend(a), extend(b))


@pytest.mark.parametrize("make, round_", [
    (lambda: pg(4, 2), True), (lambda: pg(5, 2), True),
    (lambda: random_linear(3, 4, 6, seed=5), True),
    *((lambda q=q, seed=seed: random_linear(q, 4, 6, seed), False)
      for q in (2, 3) for seed in range(3)),
    (lambda: random_linear(2, 5, 8, seed=1), False),
    (lambda: random_linear(4, 3, 5, seed=2), False),
])
def test_roundness_adds_no_memo_entries(make, round_):
    # the search asks no rank: the memo grows only by the rank check of
    # each hyperplane of a non-round cover
    m = make()
    m.rank_full
    before = len(m._cache)
    assert m.is_round() == round_
    assert len(m._cache) - before <= (0 if round_ else 2)


def _counting_closures(m):
    """Shadow m._closure_impl by a wrapper counting the calls made on m."""
    calls = [0]
    impl = m._closure_impl

    def counted(subset, within):
        calls[0] += 1
        return impl(subset, within)

    m._closure_impl = counted
    return calls


def test_roundness_matches_the_visited_set_loop():
    # with a forbid mask in place of the visited set and independent sets
    # in place of rank calls, the same cells meet first, they extend to
    # the same hyperplanes, and no search makes more closures
    inputs = list(_roundness_inputs())
    inputs += [("pg(4,2)", pg(4, 2)), ("pg(5,2)", pg(5, 2)), ("pg(4,3)", pg(4, 3))]
    checked = 0
    for name, m in inputs:
        if m.rank_full == 0:
            continue
        calls = _counting_closures(m)
        want = _visited_set_roundness(m)
        before = calls[0]
        calls[0] = 0
        assert m.roundness() == want, name
        assert calls[0] <= before, name
        checked += 1
    assert checked > 300


def _odd_field_linear(q, seed):
    """Seeded GF(q) matrix of rank 3 or 4 with 5-10 random columns, a zero
    column, a repeated column and a multiple of another, in seeded order."""
    rng = random.Random(seed)
    spec = field_make(q)
    rank = rng.randint(3, 4)
    cols = [tuple(rng.randrange(q) for _ in range(rank))
            for _ in range(rng.randint(5, 10))]
    cols += [(0,) * rank, rng.choice(cols),
             tuple(spec.mul(rng.randrange(1, q), a) for a in rng.choice(cols))]
    rng.shuffle(cols)
    return LinearMatroid(spec, cols)


@pytest.mark.parametrize("q", [5, 7, 9, 25])
def test_roundness_projection_route_matches_the_closure_route(q):
    # cells grown by projection (a linear root and its views) against cells
    # grown by closure over the same index space (DirectSum([m]) has a
    # non-linear root); GF(25) at height >= 3 rescales by `chunk_normal`
    verdicts = set()
    for seed in range(12):
        m = _odd_field_linear(q, 9_100 + 31 * q + seed)
        for view in _cached_views(m, random.Random(seed)):
            if view.rank_full == 0:
                continue
            assert isinstance(view._cells()[1], dict)
            got = view.roundness()
            assert got == DirectSum([view]).roundness(), (q, seed, view)
            if not got[0]:
                assert verify_certificate(got[1], view)
            verdicts.add(got[0])
    assert verdicts == {True, False}
    if q == 25:
        assert vector_packing(field_make(25), 3).normals() is None


@pytest.mark.parametrize("q", [2, 3])
def test_roundness_grows_cells_with_no_elimination(q, monkeypatch):
    # the 200 growths on a 200x200 identity are projection steps: echelon
    # bases are built only for the root's points and the two hyperplanes
    from matroidlab.core import LinearMatroid as Linear

    calls = [0]

    def counted(self, subset, _echelon=Linear._echelon):
        calls[0] += 1
        return _echelon(self, subset)

    monkeypatch.setattr(Linear, "_echelon", counted)
    spec = field_make(q)
    m = LinearMatroid(spec, [tuple(int(i == j) for i in range(200)) for j in range(200)])
    ok, cover = m.roundness()
    assert calls[0] <= 4
    assert not ok and verify_certificate(cover, m)


# -- certificates ------------------------------------------------------------------

def test_partition_empty_part_is_false():
    u = UniformMatroid(2, 3)
    assert not verify_certificate(Partition(u.live, 0), u)


def test_partition_malformed():
    u = UniformMatroid(2, 3)
    with pytest.raises(MalformedCertificate):
        verify_certificate(Partition(0b1, 0b1000), u)  # not a cover


@pytest.mark.parametrize("bad", [10_000_000, -1, "3"])
@pytest.mark.parametrize("field", ["contract", "line", "mapping"])
def test_certificate_from_dict_rejects_bad_indices(bad, field):
    from matroidlab import certificate_from_dict

    if field == "mapping":
        d = {"type": "minor-embedding", "claims": {"target": "fano"},
             "sets": {"contract": [], "delete": [], "mapping": [0, bad]}}
    else:
        d = {"type": "contraction-line", "claims": {"points": 3},
             "sets": {"contract": [], "line": [0, 1]}}
        d["sets"][field] = [2, bad]
    with pytest.raises(MalformedCertificate):
        certificate_from_dict(d)


@pytest.mark.parametrize("d", [
    [1],
    {"type": "partition", "sets": [1]},
    {"type": "minor-embedding", "claims": [1],
     "sets": {"contract": [], "delete": [], "mapping": [0, 1, 2]}},
], ids=["payload-list", "sets-list", "claims-list"])
def test_certificate_from_dict_rejects_non_object_parts(d):
    from matroidlab import certificate_from_dict

    with pytest.raises(MalformedCertificate):
        certificate_from_dict(d)


@pytest.mark.parametrize("bad", [-1, "3"])
def test_verify_certificate_rejects_bad_mapping_indices(bad):
    from matroidlab import MinorEmbedding

    cert = MinorEmbedding(0, 0, (bad, 1, 2), "uniform:2,3")
    with pytest.raises(MalformedCertificate):
        verify_certificate(cert, pg(3, 2))


def test_embedding_target_above_the_search_cap_is_refused():
    # a 16-element target would mean replaying 2^16 subset ranks
    host = pg(5, 2)
    mapping = tuple(range(16))
    cert = MinorEmbedding(0, host.live & ~mask_of(mapping), mapping, "uniform:2,16")
    t0 = time.perf_counter()
    with pytest.raises(MalformedCertificate, match="cap is 9"):
        verify_certificate(cert, host)
    assert time.perf_counter() - t0 < 0.1


def test_ground_cap():
    with pytest.raises(SizeLimit):
        UniformMatroid(2, 2000)


@pytest.mark.parametrize("build", [
    lambda host: UniformMatroid(2, 10 ** 8),
    lambda host: verify_certificate(
        MinorEmbedding(0, 0, (0, 1, 2), "uniform:2,100000000"), host),
])
def test_ground_cap_checked_before_allocating(build):
    host = pg(3, 2)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit):
            build(host)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
