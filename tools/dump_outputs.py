"""Write the outputs of this tree's library as one canonical JSON document,
so that two checkouts can be compared output for output.

    python3 tools/dump_outputs.py --out A.json            # in checkout A
    python3 tools/dump_outputs.py --out B.json            # in checkout B
    python3 tools/dump_outputs.py --compare A.json B.json

The library is imported from the `src` directory next to this script, so
each checkout dumps its own code.  The document has six sections:

- `walk`: the (contract, closure) sequence of a full-depth
  `core.contractions` walk on seeded linear matrices over GF(2), GF(3),
  GF(4), GF(5), GF(7), GF(8), GF(9) and GF(25) and their views,
  projective geometries, a prime subgeometry, a uniform matroid and a
  direct sum;
- `max_line`: points, exact, certificate and nodes of `max_line_minor` on
  pg(n, q) for n, q in 2..5, and on PG(n-1, p) inside pg(n, p^k);
- `census`: the canonical JSON of the three census commands on every
  registry catalog at l = 2 and 3;
- `roundness`: the verdict and the hyperplane-pair cover of `roundness`
  on every walk input and registry catalog member of rank >= 1;
- `recognizer`: the `PgReport` fields of `is_projective_geometry` on
  pg(n, q) for q in 2..9 (prime powers), on PG(n-1, p) inside pg(n, p^k),
  on the simplification of every walk input of rank >= 3, and on inputs
  whose lines all keep >= 3 points but some two disjoint lines are
  coplanar: AG(2,3), AG(3,3), AG(2,4), and PG(n-1, q) less up to q - 2
  seeded points of one seeded plane for n in 3, 4 and q in 3, 4, 5;
- `procedures`: the subset that `skew_dense_subset` returns on seeded
  GF(2)/GF(3) inputs of ranks 2-6 at connectivity budgets 0-2, and that
  `round_restriction` returns on seeded linear matroids and direct sums
  with seeded growth tables (or the name of the error raised), the inputs
  generated here.

`--compare` prints, for each section, the number of differing leaves per
path below the input name (list positions shown as `[]`), or
"identical"; it exits 1 when anything differs.  Uses the
standard library only.
"""

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matroidlab import (DensityTarget, DirectSum, GrowthPolicy,  # noqa: E402
                        LinearMatroid, UniformMatroid, bits,
                        certificate_to_dict, field_make, is_projective_geometry,
                        mask_of, max_line_minor, pg, round_restriction, skew_dense_subset,
                        subfield_subgeometry)
from matroidlab.core import contractions  # noqa: E402
from matroidlab.errors import MatroidlabError  # noqa: E402
from matroidlab.harness import catalogs  # noqa: E402
from matroidlab.harness.census import (check_kung_bound, density_profile,  # noqa: E402
                                       extremal_census)

CENSUS = {"check-kung": check_kung_bound, "density-profile": density_profile,
          "extremal-census": extremal_census}


def _seeded_linear(i):
    """Matrix of rank 2-4 with 6-10 columns, among them a zero column and a
    repeated one: over GF(2), GF(3), GF(4) or GF(8) for i < 16, over GF(5),
    GF(7), GF(9) or GF(25) from 16 on."""
    rng = random.Random(9_100 + i)
    q = (2, 3, 4, 8)[i % 4] if i < 16 else (5, 7, 9, 25)[i % 4]
    rank = rng.randint(2, 4)
    cols = [tuple(rng.randrange(q) for _ in range(rank))
            for _ in range(rng.randint(rank + 2, 8))]
    cols += [(0,) * rank, rng.choice(cols)]
    rng.shuffle(cols)
    return LinearMatroid(field_make(q), cols)


def _prime_subgeometry(n, q):
    m = pg(n, q)
    return m.restrict(subfield_subgeometry(m, 1))


def walk_inputs():
    out = {}
    for i in range(24):
        m = _seeded_linear(i)
        a, b, c = (1 << e for e in random.Random(i).sample(range(m.n), 3))
        out[f"seeded-{i}"] = m
        out[f"seeded-{i}/contract"] = m.contract(a)
        out[f"seeded-{i}/minor"] = m.minor(a, b | c)
    for n, q in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 3), (6, 2)]:
        out[f"pg-{n}-{q}"] = pg(n, q)
    out["pg-4-4/gf2"] = _prime_subgeometry(4, 4)
    out["u-4-8"] = UniformMatroid(4, 8)
    out["pg-3-2+u-2-4"] = DirectSum([pg(3, 2), UniformMatroid(2, 4)])
    return out


def dump_walks():
    return {name: [[contract, closed] for contract, closed, _ in
                   contractions(m, m.rank_full)]
            for name, m in walk_inputs().items()}


def _line_record(m):
    res = max_line_minor(m)
    cert = None if res.certificate is None else certificate_to_dict(res.certificate)
    return {"points": res.points, "exact": res.exact, "certificate": cert,
            "nodes": res.nodes}


def dump_max_line():
    out = {}
    for n in range(2, 6):
        for q in range(2, 6):
            out[f"pg-{n}-{q}"] = _line_record(pg(n, q))
    for n, q in [(3, 4), (4, 4), (3, 8), (3, 9), (4, 9)]:
        out[f"pg-{n}-{q}/prime"] = _line_record(_prime_subgeometry(n, q))
    return out


def dump_census():
    out = {}
    for name in sorted(catalogs.REGISTRY):
        catalog = catalogs.registry_catalog(name)
        for l in (2, 3):
            for command, run in CENSUS.items():
                report = run(catalog, l).to_json(canonical=True)
                out[f"{name}/l={l}/{command}"] = json.loads(report)
    return out


def _round_record(m):
    ok, cover = m.roundness()
    return {"round": ok, "cover": None if cover is None else certificate_to_dict(cover)}


def dump_roundness():
    out = {name: _round_record(m) for name, m in walk_inputs().items()
           if m.rank_full >= 1}
    for name in sorted(catalogs.REGISTRY):
        for member in catalogs.registry_catalog(name).members:
            if member.matroid.rank_full >= 1:
                out[f"{name}/{member.key}"] = _round_record(member.matroid)
    return out


def _pg_record(m):
    report = is_projective_geometry(m)
    return {"order": report.order, "plane": report.plane, "failure": report.failure}


def _affine(n, q):
    """AG(n-1, q): the points of pg(n, q) off the hyperplane x0 = 0."""
    g = pg(n, q)
    return g.restrict(mask_of(j for j, col in enumerate(g.columns) if col[0]))


def _dented_plane(n, q):
    """pg(n, q) less 1 to q - 2 seeded points of one seeded plane: two
    lines of that plane that met at a deleted point become disjoint."""
    rng = random.Random(9_700 + 10 * n + q)
    g = pg(n, q)
    plane = rng.choice(g.flats_of_rank(3))
    drop = rng.sample(list(bits(plane)), rng.randint(1, q - 2))
    return g.delete(mask_of(drop))


def dump_recognizer():
    out = {}
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in (3, 4, 5, 6):
            if n <= 4 or q ** (n - 4) <= 4:
                out[f"pg-{n}-{q}"] = _pg_record(pg(n, q))
    for n, q in [(3, 4), (4, 4), (3, 8), (3, 9), (4, 9)]:
        out[f"pg-{n}-{q}/prime"] = _pg_record(_prime_subgeometry(n, q))
    for name, m in walk_inputs().items():
        if m.rank_full >= 3:
            out[f"{name}/simple"] = _pg_record(m.simplify())
    for n, q in [(3, 3), (4, 3), (3, 4)]:
        out[f"ag-{n}-{q}"] = _pg_record(_affine(n, q))
    for n in (3, 4):
        for q in (3, 4, 5):
            out[f"pg-{n}-{q}/dented-plane"] = _pg_record(_dented_plane(n, q))
    return out


def _random_linear(rng, q, rank, cols):
    return LinearMatroid(field_make(q), [tuple(rng.randrange(q) for _ in range(rank))
                                         for _ in range(cols)])


def _skew_input(i):
    """(matroid, a, b, target) with connectivity(a, b) at most k and eps(a)
    above lam q^r(a), b of one or two elements: over GF(2) of rank 2-6 or
    GF(3) of rank 2-4 at k = 0 and 1, and over GF(3) of rank 4-5 with at
    least three quarters of its points at k = 2.  lam >= l^(k-1)/q for
    k >= 1, so no dense set met on the way has rank 1.  Draws are repeated
    until one meets these rules."""
    rng = random.Random(9_300 + i)
    k = (0, 1, 1, 2)[i % 4]
    fq = 3 if k == 2 else (2, 3)[i // 4 % 2]
    while True:
        if k == 2:  # lam >= l/q needs a field that outgrows the density base
            q, l, r = 2, 3, rng.randint(4, 5)
            hi_c = (3 ** r - 1) // 2
            lo_c = hi_c * 3 // 4
        else:
            q = 2 if fq == 2 else rng.choice([2, 3])
            l = rng.choice([3, 4] if fq == 3 else [2, 3])
            r = rng.randint(2, 6 if fq == 2 else 4)
            lo_c, hi_c = r + 2, min(30, (fq ** r - 1) // (fq - 1) + 4)
        m = _random_linear(rng, fq, r, rng.randint(lo_c, hi_c))
        b = sum(1 << e for e in rng.sample(range(m.n), rng.randint(1, 2)))
        a = sum(1 << e for e in range(m.n) if not b >> e & 1 and rng.random() < 0.9)
        if not a or m.local_connectivity(a, b) > k:
            continue
        lo = Fraction(l ** (k - 1), q) if k else Fraction(1, 1000)
        hi = Fraction(m.epsilon(a), q ** m.rank(a))
        if hi > lo:
            lam = lo + (hi - lo) * Fraction(rng.randint(1, 9), 10)
            return m, a, b, DensityTarget(lam, q, l, k)


def _round_input(i):
    """(matroid, policy): a linear matroid over GF(2) or GF(3), or its
    direct sum with a uniform matroid, and an integer growth table with
    f(r) at most its point count."""
    rng = random.Random(9_500 + i)
    fq = (2, 3)[i % 2]
    r = rng.randint(1, 5)
    m = _random_linear(rng, fq, r, rng.randint(r + 1, 16))
    if i % 3 == 2:
        m = DirectSum([m, UniformMatroid(rng.randint(1, 2), rng.randint(2, 5))])
    r = m.rank_full
    if not r:
        return None
    values = [0] * r
    values[-1] = rng.randint(1, m.epsilon())
    for k in range(r - 1, 0, -1):
        values[k - 1] = rng.randint(1, (values[k] + 1) // 2)
    return m, GrowthPolicy.from_table(values)


def _procedure_record(run, *args):
    try:
        return run(*args)
    except MatroidlabError as exc:
        return type(exc).__name__


def dump_procedures():
    out = {}
    for i in range(120):
        out[f"skew-dense-{i}"] = _procedure_record(skew_dense_subset, *_skew_input(i))
    for i in range(60):
        inp = _round_input(i)
        if inp is not None:
            out[f"round-restriction-{i}"] = _procedure_record(round_restriction, *inp)
    return out


def _diff(a, b, path, counts):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in a.keys() | b.keys():
            _diff(a.get(k), b.get(k), f"{path}.{k}" if path else k, counts)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _diff(x, y, path + "[]", counts)
    elif a != b:
        counts[path] = counts.get(path, 0) + 1


def compare(path_a, path_b) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    differs = 0
    for section in sorted(a.keys() | b.keys()):
        one, two = a.get(section, {}), b.get(section, {})
        counts = {}
        for name in one.keys() | two.keys():
            _diff(one.get(name), two.get(name), "", counts)
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"{section}: {summary or 'identical'}")
        differs |= bool(counts)
    return differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the dump here (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two dumps instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    doc = {"walk": dump_walks(), "max_line": dump_max_line(), "census": dump_census(),
           "roundness": dump_roundness(), "recognizer": dump_recognizer(),
           "procedures": dump_procedures()}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
