"""The benchmark's three workloads.

Each workload turns the seed into a fixed list of op inputs (its "pass"),
runs one op on one input, and checks the op's output.  The program only
ever sees the generated inputs.  Every op builds its own fresh matroids, so
rank memos start cold in every op, as they do in every CLI invocation.

Library calls go through module attributes (`ml.max_line_minor`, ...)
looked up at call time, so the tracer's wrappers are seen.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import matroidlab as ml
from matroidlab.harness import catalogs, census, oracles


class PgSearch:
    """Exhaustive max-line search, recognizer and certificate replay on one
    seeded column relabelling of PG(3,4)."""

    name = "pg-search"
    rank, q = 4, 4

    def setup(self, seed: int):
        base = ml.pg(self.rank, self.q)
        order = list(range(base.n))
        random.Random(seed).shuffle(order)
        self.field = base.field
        self.inputs = [("max-line", tuple(base.columns[i] for i in order))]

    def run(self, label, columns):
        m = ml.LinearMatroid(self.field, columns)
        res = ml.max_line_minor(m)
        report = ml.is_projective_geometry(m)
        return res, report, ml.verify_certificate(res.certificate, m)

    def check(self, label, columns, out):
        res, report, replayed = out
        if res.points != self.q + 1 or not res.exact:
            return f"max line {res.points} points, exact={res.exact}; want {self.q + 1}, exact"
        if report.order != self.q:
            return f"recognizer order {report.order}, want {self.q}"
        fresh = ml.LinearMatroid(self.field, columns)
        if replayed is not True or not ml.verify_certificate(res.certificate, fresh):
            return "max-line certificate does not replay"
        return None

    def outputs(self):
        return {}


class Census:
    """The census commands on freshly built, seeded restriction catalogs:
    PG(4,2) restrictions (every member needs an exhaustive search) and
    >= 20-point PG(3,3) restrictions (the search stops at the first U(2,4)).
    Each PG(4,2) command gets its own sample, as separate CLI invocations
    with their own seeds would; the full geometry is in every sample."""

    name = "census"
    l = 2
    # >= 20 of 31 points keeps member sizes (and search costs) within a
    # narrow band, so the seed moves the pass time little
    sample_pg42, min_pg42 = 16, 20
    sample_pg33, min_pg33 = 20, 20

    def setup(self, seed: int):
        rng = random.Random(seed)
        full = ml.pg(5, 2).n
        ml.pg(4, 3)
        self.full_key = f"pg5q2/{(1 << full) - 1:0{(full + 3) // 4}x}"

        def spec(n, q, min_points, sample):
            return {"kind": "pg-restrictions", "n": n, "q": q, "min_points": min_points,
                    "sample": sample, "seed": rng.randrange(1 << 30)}

        self.inputs = [(f"{command.replace('_', '-')}/pg4q2",
                        (command, spec(5, 2, self.min_pg42, self.sample_pg42)))
                       for command in ("check_kung_bound", "density_profile",
                                       "extremal_census")]
        self.inputs.append(("check-kung-bound/pg3q3", ("check_kung_bound",
                            spec(4, 3, self.min_pg33, self.sample_pg33))))
        self.digests = {}
        self.statuses = {}

    def run(self, label, inp):
        command, spec = inp
        catalog = catalogs.build_catalog(spec)
        report = getattr(census, command)(catalog, self.l)
        return report, report.to_json(canonical=True)

    def check(self, label, inp, out):
        report, text = out
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(label, digest) != digest:
            return "canonical JSON differs from the first pass"
        statuses = Counter(rec["status"] for rec in report.records)
        self.statuses[label] = dict(sorted(statuses.items()))
        if report.unknowns or report.violations:
            return f"{report.unknowns} unknowns, {len(report.violations)} violations"
        if label.endswith("pg4q2") and statuses["excluded-has-long-line"]:
            return "a binary member was reported with a U(2,4) minor"
        if label.endswith("pg3q3") and set(statuses) != {"excluded-has-long-line"}:
            # > 15 points at rank <= 4 is not binary, hence has a U(2,4) minor
            return f"statuses {dict(statuses)}, want every member excluded"
        if label.startswith("extremal"):
            top = [e for e in report.summary["extremal"] if e["rank"] == 5]
            if report.summary["findings"] or [(e["key"], e.get("order")) for e in top] \
                    != [(self.full_key, 2)]:
                return "the full geometry is not the only rank-5 extremal member"
        return None

    def outputs(self):
        return {"census.digests": self.digests, "census.status_counts": self.statuses}


# -- procedures --------------------------------------------------------------
#
# The instance rules below copy the validity rules of the test suite's
# generators (connectivity within k, density strictly above lam q^rank,
# lam >= l^(k-1)/q for k >= 1, growth tables meeting the descent's
# conditions) without importing them.

def _theta(q, r):
    return (q ** r - 1) // (q - 1)


def _random_columns(rng, q, rank, cols):
    return [tuple(rng.randrange(q) for _ in range(rank)) for _ in range(cols)]


# k = 1 strata: every (field, rank) the rules allow, in turn (GF(2) at rank 6
# has too few columns to be dense enough for k >= 1)
K1_STRATA = [(2, r) for r in range(2, 6)] + [(3, r) for r in range(2, 5)]


def _skew_input(rng, k, field_q=None, rank=None, u=None, b_size=None):
    """A valid skew-dense input.  `field_q`, `rank`, `u` (where in the
    allowed column range to land, in [0, 1)) and `b_size` pin a stratum;
    after a hundred rejected draws the column count is drawn freely, so a
    pinned count that admits no valid input cannot stall set-up."""
    for attempt in range(5000):
        if k == 2:
            fq, q, l = 3, 2, 3
            r = rank or rng.randint(4, 5)
            lo_c, hi_c = _theta(3, r) * 3 // 4, _theta(3, r)
        else:
            fq = field_q or rng.choice([2, 3])
            if fq == 2:
                q, l = 2, rng.choice([2, 3])
            else:
                q, l = rng.choice([(2, 3), (3, 3), (2, 4), (3, 4)])
            r = rank or rng.randint(2, 6 if fq == 2 else 4)
            lo_c, hi_c = r + 2, min(30, _theta(fq, r) + 4)
        if u is not None and attempt < 100:
            cols = lo_c + int(u * (hi_c - lo_c + 1))
        else:
            cols = rng.randint(lo_c, hi_c)
        columns = _random_columns(rng, fq, r, cols)
        m = ml.LinearMatroid(ml.field_make(fq), columns)
        elems = list(range(cols))
        b = ml.mask_of(rng.sample(elems, b_size or rng.randint(1, 2)))
        a = 0
        for e in elems:
            if not b >> e & 1 and rng.random() < 0.9:
                a |= 1 << e
        if a == 0 or m.local_connectivity(a, b) > k:
            continue
        lo = Fraction(l ** (k - 1), q) if k >= 1 else Fraction(1, 10 ** 6)
        hi = Fraction(m.epsilon(a), q ** m.rank(a))
        if hi <= lo:
            continue
        lam = lo + (hi - lo) * Fraction(rng.randint(1, 9), 10)
        return fq, columns, a, b, (lam, q, l, k)
    raise RuntimeError(f"no valid skew-dense input with k={k}")


def _round_input(rng, kind):
    if kind == 0:
        q = rng.choice([2, 3])
        rank = rng.randint(2, 4)
        left = ("linear", q, _random_columns(rng, q, rank, rng.randint(rank + 1, 10)))
        rrank = rng.randint(1, 3)
        right = ("linear", q, _random_columns(rng, q, rrank, rng.randint(2, 8)))
        parts = [left, right]
    elif kind == 1:
        q = rng.choice([2, 3])
        rank = rng.randint(1, 5)
        parts = [("linear", q, _random_columns(rng, q, rank, rng.randint(rank + 1, 16)))]
    else:
        parts = [("uniform", 2, rng.randint(3, 6)),
                 ("uniform", rng.randint(1, 2), rng.randint(2, 5))]
    m = _build(parts)
    r = m.rank_full
    if r < 1:
        return None, False
    values = [0] * r
    values[r - 1] = rng.randint(1, max(1, m.epsilon()))
    for k in range(r - 1, 0, -1):
        values[k - 1] = rng.randint(1, max(1, (values[k] + 1) // 2))
    return (parts, tuple(values)), not m.is_round()


def _build(parts):
    built = [ml.LinearMatroid(ml.field_make(p[1]), p[2]) if p[0] == "linear"
             else ml.UniformMatroid(p[1], p[2]) for p in parts]
    return built[0] if len(built) == 1 else ml.DirectSum(built)


class Procedures:
    """Many small skew-dense extractions and round-restriction descents.

    A pass has fixed stratum sizes, and within a stratum the column counts
    are spread evenly over their allowed range (and, at k = 2, half the
    instances have a one-element b and half a two-element b, which costs
    about a quarter more), so the seed changes the instances but not the
    mix: the median op falls inside the k = 1 stratum and the tail inside
    the k = 2 stratum on every seed.  The k = 2 stratum is large enough
    that its upper third, where the tail falls, moves little with the seed.
    """

    name = "procedures"
    skew_k2 = 72
    skew_k1 = 48 * 7    # 48 per (field, rank) stratum
    skew_k0 = 6
    rounds = 45

    def setup(self, seed: int):
        rng = random.Random(seed)
        inputs = [("skew-dense/k=2",
                   _skew_input(rng, 2, rank=5, u=(i + rng.random()) / self.skew_k2,
                               b_size=1 + i % 2))
                  for i in range(self.skew_k2)]
        per = -(-self.skew_k1 // len(K1_STRATA))
        for i in range(self.skew_k1):
            field_q, rank = K1_STRATA[i % len(K1_STRATA)]
            u = (i // len(K1_STRATA) + rng.random()) / per
            inputs.append(("skew-dense/k=1", _skew_input(rng, 1, field_q, rank, u)))
        inputs += [("skew-dense/k=0", _skew_input(rng, 0)) for _ in range(self.skew_k0)]
        made = non_round = 0
        while made < self.rounds:
            inp, split = _round_input(rng, made % 3)
            if inp is not None:
                inputs.append(("round-restriction", inp))
                made += 1
                non_round += split
        if 4 * non_round < self.rounds:
            raise RuntimeError("fewer than a quarter of the round inputs are non-round")
        self.inputs = inputs

    def run(self, label, inp):
        if label.startswith("skew"):
            field_q, columns, a, b, (lam, q, l, k) = inp
            m = ml.LinearMatroid(ml.field_make(field_q), columns)
            return ml.skew_dense_subset(m, a, b, ml.DensityTarget(lam, q, l, k))
        parts, values = inp
        return ml.round_restriction(_build(parts), ml.GrowthPolicy.from_table(values))

    def check(self, label, inp, sub):
        if label.startswith("skew"):
            field_q, columns, a, b, (lam, q, l, k) = inp
            m = ml.LinearMatroid(ml.field_make(field_q), columns)
            floor = lam * Fraction(1, l ** k) * q ** m.rank(sub)
            if sub & ~a or not m.is_skew(sub, b) or not m.epsilon(sub) > floor:
                return "result is not a subset of a, skew to b and above the floor"
            return None
        parts, values = inp
        m = _build(parts)
        if sub & ~m.live or m.rank(sub) < 1:
            return "result is empty or outside the ground set"
        view = m.restrict(sub)
        if view.epsilon() < values[m.rank(sub) - 1]:
            return "result misses its growth target"
        if ml.popcount(sub) <= oracles.ROUNDNESS_LIMIT:
            is_round = oracles.oracle_roundness(view)[0]
        else:
            is_round = view.is_round()
        return None if is_round else "result is not round"

    def outputs(self):
        return {}


WORKLOADS = {w.name: w for w in (PgSearch, Census, Procedures)}
