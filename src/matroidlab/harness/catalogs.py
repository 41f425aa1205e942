"""Catalog generation: named instances, restriction families, random linear
matroids; deterministic for a fixed spec and seed, with an on-disk cache.

A catalog is described by a JSON-able spec dict; its cache key is the hash
of the canonical spec encoding, so regeneration is byte-identical and cached
runs can be trusted.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from ..bitset import bits, lowest, mask_of, popcount
from ..core import DirectSum, LinearMatroid, Matroid, UniformMatroid
from ..errors import ConfigError
from ..field import field_make
from ..geometry import pg, subfield_subgeometry
from ..matrixio import emit_matrix, parse_matrix
from .oracles import are_isomorphic, oracle_rank_axioms_sampled, rank_profile


@dataclass
class CatalogMember:
    key: str
    matroid: Matroid
    meta: dict = field(default_factory=dict)


@dataclass
class Catalog:
    name: str
    spec: dict
    members: list

    @property
    def cache_key(self) -> str:
        return spec_hash(self.spec)


def spec_hash(spec: dict) -> str:
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# -- named instances -----------------------------------------------------------


def fano() -> LinearMatroid:
    return pg(3, 2)


def fano_plus_point():
    """The Fano subgeometry of PG(2,4) plus one extra point of a 5-point
    line meeting it in 3 points.

    Returns (matroid, line_mask, plane_mask, extra_element); masks are in
    the matroid's own (restricted PG(2,4)) index space.  The 4-element line
    is a U_{2,4}-restriction and the plane is a Fano restriction.
    """
    ambient = pg(3, 4)
    plane = subfield_subgeometry(ambient, 1)
    reps = [lowest(c) for c in ambient.points(plane)]
    # a full 5-point line of the ambient plane through 3 subgeometry points
    pair = (1 << reps[0]) | (1 << reps[1])
    big_line = ambient.closure(pair)
    extra = lowest(big_line & ~plane)
    keep = plane | (1 << extra)
    matroid = ambient.restrict(keep)
    line = big_line & keep
    return matroid, line, plane, extra


def two_lines_rank_3(points_per_line: int = 11):
    """Two `points_per_line`-point lines through a common point, rank 3,
    realized over the smallest prime field whose lines are long enough.

    Returns (matroid, line1_mask, line2_mask); the shared point is element 0
    and the total point count is 2 * points_per_line - 1.
    """
    from ..field import is_prime

    k = points_per_line
    if k < 3:
        raise ConfigError(f"need at least 3 points per line, got {k}")
    p = next(c for c in range(max(2, k - 1), 4 * k) if is_prime(c))
    spec = field_make(p)
    # line 1 spans {e1, e2}, line 2 spans {e1, e3}; both contain (1,0,0)
    columns = [(1, 0, 0), (0, 1, 0)]
    columns += [(1, a, 0) for a in range(1, k - 1)]
    columns += [(0, 0, 1)]
    columns += [(1, 0, a) for a in range(1, k - 1)]
    m = LinearMatroid(spec, columns)
    line1 = mask_of(range(k))
    line2 = (1 << 0) | mask_of(range(k, 2 * k - 1))
    return m, line1, line2


def u23_plus_u23() -> DirectSum:
    return DirectSum([UniformMatroid(2, 3), UniformMatroid(2, 3)])


NAMED_BUILDERS = {
    "fano": lambda: fano(),
    "fano-plus-point": lambda: fano_plus_point()[0],
    "two-lines-rank-3": lambda: two_lines_rank_3()[0],
    "u23-plus-u23": u23_plus_u23,
    "u2-6": lambda: UniformMatroid(2, 6),
    "u3-6": lambda: UniformMatroid(3, 6),
    "u4-8": lambda: UniformMatroid(4, 8),
    "pg-3-2": lambda: pg(3, 2),
    "pg-4-2": lambda: pg(4, 2),
    "pg-3-3": lambda: pg(3, 3),
    "pg-3-4": lambda: pg(3, 4),
}


def named_instance(name: str) -> Matroid:
    try:
        return NAMED_BUILDERS[name]()
    except KeyError:
        raise ConfigError(f"unknown named instance {name!r}") from None


# -- generators -----------------------------------------------------------------


def _pg_restriction_members(n, q, min_points, sample, seed):
    base = pg(n, q)
    total = base.n
    members = []
    if sample is None:
        masks = (m for m in range(1, 1 << total) if popcount(m) >= min_points)
    else:
        rng = random.Random(seed)
        chosen = set()
        # always include the full ground set; sample the rest
        chosen.add((1 << total) - 1)
        while len(chosen) < sample:
            m = rng.randrange(1, 1 << total)
            if popcount(m) >= min_points:
                chosen.add(m)
        masks = sorted(chosen)
    for m in masks:
        cols = [base.columns[i] for i in bits(m)]
        member = LinearMatroid(base.field, cols)
        members.append(CatalogMember(f"pg{n}q{q}/{m:0{(total + 3) // 4}x}", member,
                                     {"subset": m}))
    return members


def _random_linear_members(q, rank, cols, count, seed, simple):
    spec = field_make(q)
    rng = random.Random(seed)
    members = []
    made = 0
    while made < count:
        matrix = [tuple(rng.randrange(q) for _ in range(rank)) for _ in range(cols)]
        m = LinearMatroid(spec, matrix)
        if simple and not m.is_simple():
            continue
        members.append(CatalogMember(f"rand-gf{q}-r{rank}-{made:03d}", m,
                                     {"seed": seed, "index": made}))
        made += 1
    return members


def _iso_reduce(members):
    """Drop isomorphic duplicates, keeping the first of each class.

    Rank-profile hashing buckets the candidates; exact backtracking runs
    only inside a bucket and only for tiny members (larger ones are kept
    unconditionally, since census correctness never depends on dedup).
    """
    kept = []
    buckets = {}
    for member in members:
        if popcount(member.matroid.live) > 9:
            kept.append(member)
            continue
        profile = rank_profile(member.matroid)
        bucket = buckets.setdefault(profile, [])
        if any(are_isomorphic(member.matroid, other.matroid) for other in bucket):
            continue
        bucket.append(member)
        kept.append(member)
    return kept


def build_catalog(spec: dict) -> Catalog:
    kind = spec.get("kind")
    if kind == "pg-restrictions":
        members = _pg_restriction_members(
            spec["n"], spec["q"], spec.get("min_points", 1),
            spec.get("sample"), spec.get("seed", 0))
        name = spec.get("name", f"pg{spec['n']}q{spec['q']}-restrictions")
    elif kind == "named":
        members = [CatalogMember(n, named_instance(n)) for n in spec["names"]]
        name = spec.get("name", "named")
    elif kind == "random-linear":
        members = _random_linear_members(
            spec["q"], spec["rank"], spec["cols"], spec["count"],
            spec.get("seed", 0), spec.get("simple", False))
        name = spec.get("name", f"random-gf{spec['q']}")
    else:
        raise ConfigError(f"unknown catalog kind {kind!r}")
    if spec.get("iso_reduce"):
        members = _iso_reduce(members)
    for member in members[:64]:
        oracle_rank_axioms_sampled(member.matroid, samples=50, seed=1)
    return Catalog(name, spec, members)


REGISTRY = {
    "pg3q2-restrictions": {"kind": "pg-restrictions", "n": 3, "q": 2, "min_points": 1},
    "pg3q3-restrictions": {"kind": "pg-restrictions", "n": 3, "q": 3, "min_points": 10},
    "pg3q4-restrictions-sample": {"kind": "pg-restrictions", "n": 3, "q": 4,
                                  "min_points": 18, "sample": 300, "seed": 0},
    "named-small": {"kind": "named",
                    "names": ["fano", "fano-plus-point", "two-lines-rank-3",
                              "u23-plus-u23", "u2-6", "u3-6", "u4-8"]},
    "random-gf2-r4": {"kind": "random-linear", "q": 2, "rank": 4, "cols": 9,
                      "count": 12, "seed": 7},
    "random-gf3-r3": {"kind": "random-linear", "q": 3, "rank": 3, "cols": 8,
                      "count": 12, "seed": 11},
}


def registry_catalog(name: str, cache_dir: str | None = None,
                     seed: int | None = None) -> Catalog:
    """Build a registered catalog, loading from / saving to the cache when a
    directory is given (keyed by the spec hash, so stale entries never match).
    A `seed` replaces the spec's seed; catalogs without one ignore it."""
    if name not in REGISTRY:
        raise ConfigError(f"unknown catalog {name!r}; known: {sorted(REGISTRY)}")
    spec = dict(REGISTRY[name])
    spec["name"] = name
    if seed is not None and "seed" in spec:
        spec["seed"] = seed
    if cache_dir:
        manifest = os.path.join(cache_dir, f"{name}-{spec_hash(spec)}.json")
        if os.path.exists(manifest):
            return load_catalog(manifest)
    catalog = build_catalog(spec)
    if cache_dir:
        save_catalog(catalog, cache_dir)
    return catalog


# -- cache ------------------------------------------------------------------------


def cache_dir_from_env(default: str | None = None) -> str | None:
    return os.environ.get("MATROIDLAB_CACHE_DIR", default)


def save_catalog(catalog: Catalog, directory: str) -> str:
    """Write members as matrix files plus a manifest; atomic via temp+rename.
    Member files carry the manifest's spec-hash stamp, so catalogs of one
    name built from other specs (another seed) never overwrite them."""
    os.makedirs(directory, exist_ok=True)
    stamp = catalog.cache_key
    manifest = {"name": catalog.name, "spec": catalog.spec, "members": []}
    for member in catalog.members:
        m = member.matroid
        if isinstance(m, LinearMatroid):
            fname = f"{catalog.name}-{stamp}-{len(manifest['members']):05d}.mat"
            path = os.path.join(directory, fname)
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(emit_matrix(m))
            os.replace(tmp, path)
            manifest["members"].append({"key": member.key, "file": fname,
                                        "meta": member.meta})
        else:
            manifest["members"].append({"key": member.key, "builder": member.key,
                                        "meta": member.meta})
    mpath = os.path.join(directory, f"{catalog.name}-{stamp}.json")
    tmp = mpath + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    os.replace(tmp, mpath)
    return mpath


def load_catalog(manifest_path: str) -> Catalog:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    directory = os.path.dirname(manifest_path)
    members = []
    for entry in manifest["members"]:
        if "file" in entry:
            with open(os.path.join(directory, entry["file"])) as fh:
                m = parse_matrix(fh.read())
        else:
            m = named_instance(entry["builder"])
        members.append(CatalogMember(entry["key"], m, entry.get("meta", {})))
    return Catalog(manifest["name"], manifest["spec"], members)
