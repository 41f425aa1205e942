"""Census runs: point-count bound checks, density profiles, extremal scans.

Reports separate three kinds of outcome: pass, violation, and unknown
(the node cap ran out); unknowns are never counted as either of the others.
Records are keyed and sorted, and the canonical JSON encoding (timing
zeroed, sorted keys) is byte-stable for a fixed seed and version.
"""

import json
import time
from dataclasses import dataclass, field

from .. import __version__
from ..bitset import popcount
from ..geometry import geometric_series_sum, is_projective_geometry
from ..minors import max_line_minor, root_field_order
from ..procedures import largest_prime_power_leq
from .catalogs import Catalog


@dataclass
class CensusReport:
    command: str
    params: dict
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    timing_seconds: float = 0.0
    version: str = __version__

    def to_dict(self, canonical: bool = False) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "params": self.params,
            "records": self.records,
            "summary": self.summary,
            "timing": {"seconds": 0.0 if canonical else round(self.timing_seconds, 6)},
        }

    def to_json(self, canonical: bool = False) -> str:
        return json.dumps(self.to_dict(canonical), sort_keys=True,
                          separators=(",", ": "), indent=1) + "\n"

    def summary_csv(self) -> str:
        rows = self.summary.get("table")
        lines = []
        if rows:
            header = sorted(rows[0])
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(str(row[h]) for h in header))
        else:
            for k in sorted(self.summary):
                v = self.summary[k]
                if isinstance(v, (int, float, str)):
                    lines.append(f"{k},{v}")
                else:
                    lines.append(f"{k},{json.dumps(v, sort_keys=True)}")
        return "\n".join(lines) + "\n"

    @property
    def violations(self) -> list:
        return self.summary.get("violations", [])

    @property
    def unknowns(self) -> int:
        return self.summary.get("unknown", 0)


def _membership(matroid, l: int, max_nodes: int | None):
    """Three-valued membership in the no-(l+2)-point-line class, via the
    line-minor search, which ends at the first (l+2)-point line or at the
    field bound of a GF(q') member: (status, max_line or None, nodes)."""
    if matroid.rank_full < 2:
        return "in-class", 1, 0
    res = max_line_minor(matroid, max_nodes, stop_at=l + 2)
    if res.points >= l + 2:
        return "excluded", res.points, res.nodes
    if res.exact:
        return "in-class", res.points, res.nodes
    return "unknown", None, res.nodes


def _base_record(key: str, m) -> dict:
    return {"key": key, "n": popcount(m.live), "rank": m.rank_full,
            "epsilon": m.epsilon(), "simple": m.is_simple(),
            "round": m.is_round() if m.rank_full >= 1 else None}


def _max_eps_by_rank(records) -> dict:
    out = {}
    for rec in records:
        if rec.get("status") in ("ok", "extremal", "violation"):
            r = str(rec["rank"])
            out[r] = max(out.get(r, 0), rec["epsilon"])
    return out


def _census(command: str, catalog: Catalog, l: int, max_nodes: int | None,
            classify, summarize, with_q: bool = False) -> CensusReport:
    """The member loop shared by the census commands: members in key order,
    non-simple ones skipped, membership decided and unknowns counted.
    `classify(rec, m, status, max_line, nodes, q)` completes each simple
    member's record (its status preset unless in-class), `summarize(records,
    q)` builds the summary.  With `with_q`, q is the largest prime power
    <= l and a report parameter; otherwise it is None."""
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    params = {"catalog": catalog.name, "spec": catalog.spec, "l": l}
    q = None
    if with_q:
        q = params["q"] = largest_prime_power_leq(l)
    t0 = time.perf_counter()
    records = []
    unknown = 0
    for member in sorted(catalog.members, key=lambda m: m.key):
        m = member.matroid
        rec = _base_record(member.key, m)
        records.append(rec)
        if not rec["simple"]:
            rec["status"] = "skipped-not-simple"
            continue
        status, maxline, nodes = _membership(m, l, max_nodes)
        if status == "unknown":
            rec["status"] = "unknown"
            unknown += 1
        elif status == "excluded":
            rec["status"] = "excluded-has-long-line"
        classify(rec, m, status, maxline, nodes, q)
    summary = summarize(records, q)
    summary["unknown"] = unknown
    return CensusReport(command=command, params=params, records=records,
                        summary=summary, timing_seconds=time.perf_counter() - t0)


def check_kung_bound(catalog: Catalog, l: int,
                     max_nodes: int | None = None) -> CensusReport:
    """For every simple member with no (l+2)-point-line minor, check that the
    point count is at most (l^r - 1)/(l - 1); the classical Kung bound,
    valid for any integer l >= 2.  Equality cases are flagged as extremal."""
    violations = []
    extremal = []

    def classify(rec, m, status, maxline, nodes, q):
        rec["max_line"] = maxline
        rec["nodes"] = nodes
        if status != "in-class":
            return
        bound = geometric_series_sum(l, m.rank_full)
        rec["bound"] = bound
        if m.epsilon() > bound:
            rec["status"] = "violation"
            violations.append({"key": rec["key"], "epsilon": m.epsilon(),
                               "bound": bound, "rank": m.rank_full})
        elif m.epsilon() == bound:
            rec["status"] = "extremal"
            extremal.append({"key": rec["key"], "rank": m.rank_full,
                             "epsilon": m.epsilon()})
        else:
            rec["status"] = "ok"

    def summarize(records, q):
        return {"checked": sum(1 for r in records if r.get("status") in
                               ("ok", "extremal", "violation")),
                "violations": violations, "extremal": extremal,
                "max_epsilon_by_rank": _max_eps_by_rank(records),
                "bound": f"(l^r - 1)/(l - 1) with l = {l} (Kung point bound)"}

    return _census("check-kung", catalog, l, max_nodes, classify, summarize)


def density_profile(catalog: Catalog, l: int,
                    max_nodes: int | None = None) -> CensusReport:
    """Max point count per rank among members with no (l+2)-point-line
    minor, against theta(q, r) for q the largest prime power <= l.

    Report-only: the prime-power bound is an asymptotic statement (it needs
    sufficiently large rank), so small-rank excess is recorded as a finding,
    never as a failure."""
    by_rank: dict = {}

    def classify(rec, m, status, maxline, nodes, q):
        rec["max_line"] = maxline
        if status != "in-class":
            return
        rec["status"] = "profiled"
        # a member of rank < 2 is settled with no search; a GF(q') member
        # whose longest line has q' + 1 points by the field bound, which
        # ended the search there
        field_q = root_field_order(m)
        if m.rank_full < 2:
            kind = {"kind": "rank-below-2"}
        elif field_q is not None and maxline == field_q + 1:
            kind = {"kind": "field-bound", "q": field_q}
        else:
            kind = {"kind": "exhaustive-search"}
        rec["membership"] = {**kind, "nodes": nodes, "max_line": maxline}
        r = m.rank_full
        cur = by_rank.get(r)
        if cur is None or m.epsilon() > cur["max_epsilon"]:
            by_rank[r] = {"rank": r, "max_epsilon": m.epsilon(),
                          "achievers": [rec["key"]]}
        elif m.epsilon() == cur["max_epsilon"]:
            cur["achievers"].append(rec["key"])

    def summarize(records, q):
        table = []
        for r in sorted(by_rank):
            row = by_rank[r]
            bound = geometric_series_sum(q, r)
            table.append({"rank": r, "max_epsilon": row["max_epsilon"],
                          "theta_q": bound,
                          "excess": max(0, row["max_epsilon"] - bound),
                          "achievers": ";".join(sorted(row["achievers"])[:4])})
        return {"table": table, "violations": [],
                "note": (f"q = {q} is the largest prime power <= {l}; the "
                         "theta bound is asymptotic in the rank, so excess "
                         "rows are findings, not failures")}

    return _census("density-profile", catalog, l, max_nodes, classify, summarize,
                   with_q=True)


def extremal_census(catalog: Catalog, l: int,
                    max_nodes: int | None = None) -> CensusReport:
    """Among simple members in the no-(l+2)-point-line class whose point
    count equals theta(q, r), run the projective-geometry recognizer.

    Rank >= 4 members that are extremal but not projective geometries are
    reported as findings (the extremal characterization is asymptotic);
    rank-3 hits carry the projective-plane caveat."""
    findings = []
    extremal = []

    def classify(rec, m, status, maxline, nodes, q):
        if status != "in-class":
            return
        r = m.rank_full
        if m.epsilon() != geometric_series_sum(q, r):
            rec["status"] = "not-extremal"
            return
        entry = {"key": rec["key"], "rank": r, "epsilon": m.epsilon()}
        if r <= 2:
            rec["status"] = "extremal-trivial-rank"
            entry["note"] = "rank too small for the recognizer"
            extremal.append(entry)
            return
        report_pg = is_projective_geometry(m)
        if report_pg.order == q:
            rec["status"] = "extremal-projective-geometry"
            entry["order"] = q
            if report_pg.plane:
                entry["note"] = ("rank 3: projective-plane axioms only; "
                                 "planes of order <= 8 are unique")
            extremal.append(entry)
        else:
            rec["status"] = "extremal-not-projective-geometry"
            entry["failure"] = report_pg.failure or f"order {report_pg.order} != {q}"
            findings.append(entry)

    def summarize(records, q):
        return {"extremal": extremal, "findings": findings, "violations": [],
                "note": ("non-geometry extremal members at small rank are "
                         "findings; the characterization needs large rank")}

    return _census("extremal-census", catalog, l, max_nodes, classify, summarize,
                   with_q=True)
