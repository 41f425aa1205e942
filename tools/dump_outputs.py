"""Write the outputs of this tree's library as one canonical JSON document,
so that two checkouts can be compared output for output.

    python3 tools/dump_outputs.py --out A.json            # in checkout A
    python3 tools/dump_outputs.py --out B.json            # in checkout B
    python3 tools/dump_outputs.py --compare A.json B.json

The library is imported from the `src` directory next to this script, so
each checkout dumps its own code.  The document has five sections:

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
  and on the simplification of every walk input of rank >= 3.

`--compare` prints, for each section, the number of differing leaves per
path below the input name (list positions shown as `[]`), or
"identical"; it exits 1 when anything differs.  Uses the
standard library only.
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matroidlab import (DirectSum, LinearMatroid, UniformMatroid,  # noqa: E402
                        certificate_to_dict, field_make, is_projective_geometry,
                        max_line_minor, pg, subfield_subgeometry)
from matroidlab.core import contractions  # noqa: E402
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
           "roundness": dump_roundness(), "recognizer": dump_recognizer()}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
