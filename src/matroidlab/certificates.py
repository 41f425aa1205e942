"""Replayable evidence objects for predicate outcomes.

Every certificate stores element sets as masks in the index space of the
matroid it was issued against, so a certificate produced while searching a
minor replays directly against the root matroid.
"""

from dataclasses import dataclass

from .bitset import MAX_GROUND, bits, mask_of, popcount, spread
from .errors import MalformedCertificate

# the largest target, in elements, of a minor embedding: a search or a
# replay checks the ranks of all 2^size subsets of the target
MAX_EMBED_TARGET = 9


@dataclass(frozen=True)
class Partition:
    """Claim: (part_a, part_b) splits the ground set into two low-rank cells."""

    part_a: int
    part_b: int


@dataclass(frozen=True)
class HyperplanePairCover:
    """Claim: two rank-(r-1) flats jointly cover the ground set."""

    hyperplane_a: int
    hyperplane_b: int


@dataclass(frozen=True)
class ContractionLine:
    """Claim: after contracting `contract`, `line` is a rank-2 flat with
    exactly `points` points."""

    contract: int
    line: int
    points: int


@dataclass(frozen=True)
class MinorEmbedding:
    """Claim: contracting `contract` and deleting `delete` leaves a matroid
    isomorphic to a named small target, with mapping[j] the surviving base
    element matched to the j-th target element."""

    contract: int
    delete: int
    mapping: tuple
    target: str = ""  # optional descriptor, e.g. "uniform:2,5"


def _require(cond, msg):
    if not cond:
        raise MalformedCertificate(msg)


def _check_inside(matroid, mask, what):
    _require(mask & ~matroid.live == 0, f"{what} has elements outside the ground set")


def target_from_descriptor(desc: str):
    """Rebuild a small target matroid from a certificate descriptor."""
    from .core import UniformMatroid
    from .geometry import pg

    if desc.startswith("uniform:"):
        r, n = (int(t) for t in desc[len("uniform:"):].split(","))
        return UniformMatroid(r, n)
    if desc.startswith("pg:"):
        n, q = (int(t) for t in desc[len("pg:"):].split(","))
        return pg(n, q)
    if desc == "fano":
        return pg(3, 2)
    raise MalformedCertificate(f"unknown target descriptor {desc!r}")


def verify_certificate(cert, matroid, target=None) -> bool:
    """Replay `cert` against `matroid`; True iff the claim checks out.

    Structurally invalid certificates (elements outside the ground set,
    bad mapping indices, overlapping sets, a missing target) raise
    MalformedCertificate; claims that merely fail return False.
    """
    if isinstance(cert, Partition):
        _check_inside(matroid, cert.part_a, "part_a")
        _check_inside(matroid, cert.part_b, "part_b")
        _require(cert.part_a & cert.part_b == 0, "partition cells overlap")
        _require((cert.part_a | cert.part_b) == matroid.live, "cells do not cover the ground set")
        if cert.part_a == 0 or cert.part_b == 0:
            return False
        r = matroid.rank_full
        return matroid.rank(cert.part_a) < r and matroid.rank(cert.part_b) < r

    if isinstance(cert, HyperplanePairCover):
        _check_inside(matroid, cert.hyperplane_a, "hyperplane_a")
        _check_inside(matroid, cert.hyperplane_b, "hyperplane_b")
        r = matroid.rank_full
        for h in (cert.hyperplane_a, cert.hyperplane_b):
            if matroid.closure(h) != h or matroid.rank(h) != r - 1:
                return False
        return (cert.hyperplane_a | cert.hyperplane_b) == matroid.live

    if isinstance(cert, ContractionLine):
        _check_inside(matroid, cert.contract, "contract set")
        _check_inside(matroid, cert.line, "line")
        _require(cert.contract & cert.line == 0, "line meets the contracted set")
        minor = matroid.minor(contract=cert.contract)
        if minor.rank(cert.line) != 2:
            return False
        if minor.closure(cert.line) != cert.line:
            return False
        return minor.epsilon(cert.line) == cert.points

    if isinstance(cert, MinorEmbedding):
        _check_inside(matroid, cert.contract, "contract set")
        _check_inside(matroid, cert.delete, "delete set")
        _require(cert.contract & cert.delete == 0, "contract and delete overlap")
        if target is None:
            if not cert.target:
                raise MalformedCertificate("embedding certificate needs a target matroid")
            target = target_from_descriptor(cert.target)
        _require(target.size <= MAX_EMBED_TARGET,
                 f"target has {target.size} elements, cap is {MAX_EMBED_TARGET}")
        telems = list(bits(target.live))
        _require(len(cert.mapping) == len(telems), "mapping size differs from target size")
        image = _mask(cert.mapping)
        _require(popcount(image) == len(cert.mapping), "mapping is not injective")
        live_after = matroid.live & ~cert.contract & ~cert.delete
        _require(image == live_after, "mapped elements do not match the surviving ground set")
        minor = matroid.minor(contract=cert.contract, delete=cert.delete)
        for sub in range(1 << len(telems)):
            if target.rank(spread(sub, telems)) != minor.rank(spread(sub, cert.mapping)):
                return False
        return True

    raise MalformedCertificate(f"unknown certificate type {type(cert).__name__}")


_KINDS = {
    Partition: "partition",
    HyperplanePairCover: "hyperplane-pair-cover",
    ContractionLine: "contraction-line",
    MinorEmbedding: "minor-embedding",
}


def certificate_to_dict(cert) -> dict:
    kind = _KINDS.get(type(cert))
    if kind is None:
        raise MalformedCertificate(f"unknown certificate type {type(cert).__name__}")
    if isinstance(cert, Partition):
        sets = {"part_a": sorted(bits(cert.part_a)), "part_b": sorted(bits(cert.part_b))}
        claims = {}
    elif isinstance(cert, HyperplanePairCover):
        sets = {"hyperplane_a": sorted(bits(cert.hyperplane_a)),
                "hyperplane_b": sorted(bits(cert.hyperplane_b))}
        claims = {}
    elif isinstance(cert, ContractionLine):
        sets = {"contract": sorted(bits(cert.contract)), "line": sorted(bits(cert.line))}
        claims = {"points": cert.points}
    else:
        sets = {"contract": sorted(bits(cert.contract)),
                "delete": sorted(bits(cert.delete)),
                "mapping": list(cert.mapping)}
        claims = {"target": cert.target}
    return {"type": kind, "sets": sets, "claims": claims}


def _indices(values) -> list:
    """Decoded element indices, each checked before any mask is built."""
    values = list(values)
    for i in values:
        _require(type(i) is int and 0 <= i < MAX_GROUND, f"bad element index {i!r}")
    return values


def _mask(values) -> int:
    return mask_of(_indices(values))


def certificate_from_dict(d: dict):
    if not isinstance(d, dict):
        raise MalformedCertificate("certificate payload must be an object")
    try:
        kind = d["type"]
        sets = d["sets"]
        claims = d.get("claims", {})
        if not isinstance(sets, dict) or not isinstance(claims, dict):
            raise MalformedCertificate("certificate 'sets' and 'claims' must be objects")
        if kind == "partition":
            return Partition(_mask(sets["part_a"]), _mask(sets["part_b"]))
        if kind == "hyperplane-pair-cover":
            return HyperplanePairCover(_mask(sets["hyperplane_a"]),
                                       _mask(sets["hyperplane_b"]))
        if kind == "contraction-line":
            return ContractionLine(_mask(sets["contract"]), _mask(sets["line"]),
                                   int(claims["points"]))
        if kind == "minor-embedding":
            return MinorEmbedding(_mask(sets["contract"]), _mask(sets["delete"]),
                                  tuple(_indices(sets["mapping"])),
                                  str(claims.get("target", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificate(f"bad certificate payload: {exc}") from exc
    raise MalformedCertificate(f"unknown certificate kind {kind!r}")
