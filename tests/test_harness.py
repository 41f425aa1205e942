"""Catalogs, oracles, census runs, report determinism."""

import json

import pytest

from matroidlab import (DirectSum, ExplicitMatroid, UniformMatroid,
                        has_u2n_minor, max_line_minor, pg)
from matroidlab.errors import ConfigError, SizeLimit
from matroidlab.harness import catalogs as cat
from matroidlab.harness import oracles
from matroidlab.harness.census import (check_kung_bound, density_profile,
                                       extremal_census)
from conftest import random_linear


def test_registry_pg32_restrictions():
    c = cat.registry_catalog("pg3q2-restrictions")
    assert len(c.members) == 127
    keys = [m.key for m in c.members]
    assert len(set(keys)) == 127
    assert all(m.matroid.is_simple() for m in c.members)


def test_catalog_regeneration_identical():
    a = cat.registry_catalog("random-gf2-r4")
    b = cat.registry_catalog("random-gf2-r4")
    assert [m.key for m in a.members] == [m.key for m in b.members]
    assert [m.matroid.columns for m in a.members] == \
           [m.matroid.columns for m in b.members]


def test_catalog_cache_roundtrip(tmp_path):
    c = cat.registry_catalog("random-gf3-r3")
    path = cat.save_catalog(c, str(tmp_path))
    again = cat.load_catalog(path)
    assert [m.key for m in again.members] == [m.key for m in c.members]
    assert [m.matroid.columns for m in again.members] == \
           [m.matroid.columns for m in c.members]
    # same spec hashes to the same cache key
    assert cat.build_catalog(c.spec).cache_key == c.cache_key


def test_unknown_catalog_rejected():
    with pytest.raises(ConfigError):
        cat.registry_catalog("nope")


def test_iso_reduction_on_plane_restrictions():
    # deleting 0, 1, or 2 points from the Fano plane gives one class each
    # (the plane's symmetry group is 2-transitive on points)
    spec = {"kind": "pg-restrictions", "n": 3, "q": 2, "min_points": 5,
            "iso_reduce": True}
    reduced = cat.build_catalog(spec)
    assert len(reduced.members) == 3
    sizes = sorted(m.matroid.size for m in reduced.members)
    assert sizes == [5, 6, 7]
    full = cat.build_catalog({**spec, "iso_reduce": False})
    assert len(full.members) == 1 + 7 + 21


def test_iso_helpers():
    from matroidlab.harness.oracles import are_isomorphic, rank_profile
    from matroidlab import LinearMatroid, field_make

    a = pg(3, 2)
    perm = LinearMatroid(a.field, a.columns[::-1])
    assert rank_profile(a) == rank_profile(perm)
    assert are_isomorphic(a, perm)
    dent = LinearMatroid(a.field, a.columns[:6])
    assert rank_profile(a) != rank_profile(dent)
    assert not are_isomorphic(a, dent)
    assert not are_isomorphic(UniformMatroid(2, 4), UniformMatroid(3, 4))


def test_registry_catalog_cache_roundtrip(tmp_path):
    first = cat.registry_catalog("random-gf2-r4", cache_dir=str(tmp_path))
    assert any(p.suffix == ".json" for p in tmp_path.iterdir())
    second = cat.registry_catalog("random-gf2-r4", cache_dir=str(tmp_path))
    assert [m.key for m in second.members] == [m.key for m in first.members]
    assert [m.matroid.columns for m in second.members] == \
           [m.matroid.columns for m in first.members]


def test_cache_keeps_member_files_of_each_seed(tmp_path):
    # two seeds of one catalog share a cache directory: the second build
    # must not overwrite the member files the first one's manifest names
    cache = str(tmp_path)
    five = cat.registry_catalog("random-gf2-r4", cache_dir=cache, seed=5)
    nine = cat.registry_catalog("random-gf2-r4", cache_dir=cache, seed=9)
    columns = [m.matroid.columns for m in five.members]
    assert columns != [m.matroid.columns for m in nine.members]
    again = cat.registry_catalog("random-gf2-r4", cache_dir=cache, seed=5)
    assert [m.matroid.columns for m in again.members] == columns


def test_named_instances_build():
    for name in cat.REGISTRY["named-small"]["names"]:
        m = cat.named_instance(name)
        assert m.rank_full >= 1


# -- oracles ---------------------------------------------------------------------

def test_oracle_rank_axioms_passes():
    for m in (pg(3, 2), UniformMatroid(3, 7), random_linear(3, 4, 10, 3),
              DirectSum([UniformMatroid(2, 3), UniformMatroid(2, 3)]),
              pg(4, 2).minor(contract=0b1, delete=0b110)):
        oracles.oracle_rank_axioms(m)


def test_oracle_rank_axioms_detects_planted_violation():
    table = list(ExplicitMatroid.from_matroid(UniformMatroid(2, 4)).table)
    table[0b0111] = 3  # rank jump breaks submodularity against {0,1}
    bad = ExplicitMatroid(4, table, verify=False)
    with pytest.raises(AssertionError):
        oracles.oracle_rank_axioms(bad)


@pytest.mark.parametrize("n, table, broken", [
    (2, [0, 2, 2, 2], "0 <= rank <= |X| fails"),  # breaks only the bound
    (3, [0, 1, 1, 1, 1, 2, 1, 2], "submodularity fails"),  # {0,1} vs {1,2}
])
def test_oracle_rank_axioms_names_the_broken_axiom(n, table, broken):
    with pytest.raises(AssertionError) as exc:
        oracles.oracle_rank_axioms(ExplicitMatroid(n, table, verify=False))
    assert str(exc.value) == broken


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("scattered", [False, True], ids=["contiguous", "scattered"])
def test_coin_mask_matches_the_per_element_loop(seed, scattered):
    # one getrandbits call gives the masks a draw of random() per element
    # gave, and leaves the generator where that loop left it
    import random

    for n in range(71):
        elems = [3 * i + 1 + (i & 1) for i in range(n)] if scattered else list(range(n))
        fast, slow = random.Random(seed + n), random.Random(seed + n)
        for _ in range(3):
            want = 0
            for e in elems:
                if slow.random() < 0.5:
                    want |= 1 << e
            assert oracles.coin_mask(fast, elems) == want, (n, elems)
        assert fast.random() == slow.random()


def test_oracle_size_limits():
    with pytest.raises(SizeLimit):
        oracles.oracle_rank_axioms(pg(4, 2))
    with pytest.raises(SizeLimit):
        oracles.oracle_roundness(UniformMatroid(3, 15))
    with pytest.raises(SizeLimit):
        oracles.oracle_max_line(pg(3, 3))


def test_oracle_roundness_agrees():
    cases = [UniformMatroid(2, 2), UniformMatroid(2, 5), pg(3, 2), pg(3, 3),
             DirectSum([UniformMatroid(2, 3), UniformMatroid(2, 3)]),
             random_linear(2, 4, 11, 9), random_linear(3, 3, 9, 10)]
    for m in cases:
        fast = m.is_round()
        slow, witness = oracles.oracle_roundness(m)
        assert fast == slow
        if witness is not None:
            from matroidlab import verify_certificate
            assert verify_certificate(witness, m)


def test_oracle_rank_axioms_across_catalogs():
    # every member within the oracle size limit passes full-pair submodularity
    checked = 0
    for name in ("pg3q2-restrictions", "named-small", "random-gf3-r3"):
        for member in cat.registry_catalog(name).members:
            m = member.matroid
            if oracles.popcount(m.live) <= oracles.RANK_AXIOM_LIMIT:
                oracles.oracle_rank_axioms(m)
                checked += 1
    assert checked >= 140


def test_oracle_minor_agrees():
    cases = [pg(3, 2), UniformMatroid(3, 6), random_linear(2, 3, 8, 12),
             random_linear(3, 3, 7, 13)]
    for m in cases:
        fast = max_line_minor(m)
        assert fast.exact
        assert fast.points == oracles.oracle_max_line(m)


# -- census -----------------------------------------------------------------------

def test_check_kung_u26_boundary():
    single = cat.Catalog("one", {"kind": "named", "names": ["u2-6"]},
                         [cat.CatalogMember("u2-6", UniformMatroid(2, 6))])
    at_bound = check_kung_bound(single, 5)
    assert not at_bound.violations
    assert at_bound.summary["extremal"] == [
        {"key": "u2-6", "rank": 2, "epsilon": 6}]
    excluded = check_kung_bound(single, 4)
    assert excluded.records[0]["status"] == "excluded-has-long-line"
    assert not excluded.violations and excluded.summary["checked"] == 0


def test_check_kung_pg32_restrictions():
    c = cat.registry_catalog("pg3q2-restrictions")
    report = check_kung_bound(c, 2)
    assert not report.violations
    assert report.unknowns == 0
    rank3 = [e for e in report.summary["extremal"] if e["rank"] == 3]
    assert rank3 == [{"key": "pg3q2/7f", "rank": 3, "epsilon": 7}]
    assert report.summary["max_epsilon_by_rank"] == {"1": 1, "2": 3, "3": 7}
    full = next(r for r in report.records if r["key"] == "pg3q2/7f")
    assert full["round"] is True  # records carry the roundness flag


def test_check_kung_unknowns_with_tiny_budget():
    c = cat.registry_catalog("named-small")
    report = check_kung_bound(c, 3, max_nodes=1)
    assert report.unknowns > 0


def test_density_profile_pg33():
    single = cat.Catalog("one", {"kind": "named", "names": ["pg-3-3"]},
                         [cat.CatalogMember("pg-3-3", pg(3, 3))])
    report = density_profile(single, 3)
    assert report.summary["table"] == [
        {"rank": 3, "max_epsilon": 13, "theta_q": 13, "excess": 0,
         "achievers": "pg-3-3"}]


def test_density_profile_empty_catalog():
    empty = cat.Catalog("empty", {"kind": "named", "names": []}, [])
    report = density_profile(empty, 2)
    assert report.summary["table"] == []


def test_density_profile_pg32_restrictions():
    report = density_profile(cat.registry_catalog("pg3q2-restrictions"), 2)
    by_rank = {row["rank"]: row for row in report.summary["table"]}
    assert by_rank[3]["max_epsilon"] == 7 and by_rank[3]["excess"] == 0
    assert by_rank[2]["max_epsilon"] == 3
    assert report.unknowns == 0


def test_density_profile_labels_field_bound_membership():
    # binary members at l = 2: no minor of a GF(2) matrix has a 4-point
    # line, so a search that reaches a 3-point line ends there, and the
    # record names the field bound instead of an exhaustive search
    catalog = cat.registry_catalog("pg3q2-restrictions")
    members = {m.key: m.matroid for m in catalog.members}
    report = density_profile(catalog, 2)
    kinds = set()
    for rec in report.records:
        ms = rec["membership"]
        kinds.add(ms["kind"])
        m = members[rec["key"]]
        if m.rank_full < 2:
            # settled without a search
            assert ms == {"kind": "rank-below-2", "nodes": 0, "max_line": 1}
        elif rec["max_line"] == 3:
            assert ms == {"kind": "field-bound", "q": 2, "nodes": ms["nodes"],
                          "max_line": 3}
        else:
            assert ms["kind"] == "exhaustive-search" and "q" not in ms
            assert ms["nodes"] == sum(len(m.flats_of_rank(k))
                                      for k in range(m.rank_full - 1))
    assert kinds == {"rank-below-2", "field-bound", "exhaustive-search"}
    assert sum(rec["membership"]["kind"] == "rank-below-2"
               for rec in report.records) == 7


def test_extremal_census_pg42_variants():
    m = pg(4, 2)
    members = [cat.CatalogMember("full", m)]
    for drop in range(3):
        cols = [c for i, c in enumerate(m.columns) if i != drop]
        members.append(cat.CatalogMember(f"minus-{drop}",
                                         type(m)(m.field, cols)))
    catalog = cat.Catalog("pg42-variants", {"kind": "named", "names": []}, members)
    report = extremal_census(catalog, 2)
    rank4 = [e for e in report.summary["extremal"] if e["rank"] == 4]
    assert rank4 == [{"key": "full", "rank": 4, "epsilon": 15, "order": 2}]
    assert not report.summary["findings"]


def test_extremal_census_pg43():
    single = cat.Catalog("one", {"kind": "named", "names": ["pg-4-3"]},
                         [cat.CatalogMember("pg-4-3", pg(4, 3))])
    report = extremal_census(single, 3)
    hits = report.summary["extremal"]
    assert len(hits) == 1 and hits[0]["order"] == 3 and hits[0]["rank"] == 4
    assert not report.summary["findings"]


def test_extremal_census_no_members():
    single = cat.Catalog("one", {"kind": "named", "names": ["u3-6"]},
                         [cat.CatalogMember("u3-6", UniformMatroid(3, 6))])
    report = extremal_census(single, 4)
    assert report.summary["extremal"] == []


# -- reports -----------------------------------------------------------------------

def test_report_canonical_bytes_stable():
    c = cat.registry_catalog("pg3q2-restrictions")
    one = check_kung_bound(c, 2).to_json(canonical=True)
    two = check_kung_bound(cat.registry_catalog("pg3q2-restrictions"), 2) \
        .to_json(canonical=True)
    assert one == two
    payload = json.loads(one)
    assert set(payload) == {"version", "command", "params", "records",
                            "summary", "timing"}
    assert payload["timing"] == {"seconds": 0.0}


def test_report_csv_summary():
    single = cat.Catalog("one", {"kind": "named", "names": ["pg-3-3"]},
                         [cat.CatalogMember("pg-3-3", pg(3, 3))])
    report = density_profile(single, 3)
    csv = report.summary_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "achievers,excess,max_epsilon,rank,theta_q"
    assert lines[1] == "pg-3-3,0,13,3,13"


def test_certificate_serialization_roundtrip():
    from matroidlab import certificate_from_dict, certificate_to_dict
    m = pg(3, 2)
    res = max_line_minor(m)
    d = certificate_to_dict(res.certificate)
    again = certificate_from_dict(d)
    assert again == res.certificate
    out = has_u2n_minor(UniformMatroid(2, 6), 6)
    assert certificate_from_dict(certificate_to_dict(out.certificate)) \
        == out.certificate
