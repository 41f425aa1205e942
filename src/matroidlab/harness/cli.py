"""Command-line interface.

Exit codes: 0 all assertions pass, 1 a violation was found, 2 usage or
input error, 3 the search budget ran out with unknown outcomes.
"""

import argparse
import json
import sys
from fractions import Fraction

from ..bitset import MAX_GROUND, bits, mask_of
from ..certificates import (certificate_from_dict, certificate_to_dict,
                            verify_certificate)
from ..core import UniformMatroid
from ..errors import MatroidlabError
from ..geometry import is_projective_geometry, pg
from ..matrixio import emit_matrix, parse_matrix
from ..minors import (FOUND, UNKNOWN, has_u2n_minor, max_line_minor,
                      minor_isomorphic)
from ..procedures import (DensityTarget, GrowthPolicy, gap_check,
                          largest_prime_power_leq, line_from_line_and_plane,
                          round_dense_restriction, round_restriction,
                          skew_dense_subset)
from . import catalogs as catmod
from .census import check_kung_bound, density_profile, extremal_census

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

FORMATS = ("text", "json", "csv")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _read_config(path):
    """Key=value config; unknown keys and formats are rejected."""
    allowed = {"cache_dir", "budget", "seed", "format"}
    out = {}
    with open(path) as fh:
        for i, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{i}: expected KEY=VALUE")
            key, val = (t.strip() for t in line.split("=", 1))
            if key not in allowed:
                raise _UsageError(f"{path}:{i}: unknown config key {key!r}")
            if key == "format" and val not in FORMATS:
                raise _UsageError(f"{path}:{i}: format {val!r} is not one of "
                                  f"{', '.join(FORMATS)}")
            out[key] = val
    return out


def _load_matroid(source):
    """A matrix file path, '-' for stdin, or 'name:<instance>'."""
    if source.startswith("name:"):
        return catmod.named_instance(source[len("name:"):])
    if source == "-" or source is None:
        return parse_matrix(sys.stdin.read())
    with open(source) as fh:
        return parse_matrix(fh.read())


def _rational(text):
    """An integer, decimal or p/q.  Exponent notation is refused: Fraction
    would build 10**k in full, so '1e-9999999' alone costs seconds."""
    if "e" in text.lower():
        raise _UsageError(f"rational {text!r} in exponent notation; write a decimal or p/q")
    return Fraction(text)


def _parse_target(text):
    """'u2,5' style uniform targets or named instances."""
    if text.startswith("u"):
        r, n = (int(t) for t in text[1:].split(","))
        return UniformMatroid(r, n), f"uniform:{r},{n}"
    if text == "fano":
        return pg(3, 2), "fano"
    raise _UsageError(f"cannot parse target {text!r} (use e.g. u2,5 or fano)")


def _mask_arg(text):
    if not text:
        return 0
    indices = [int(t) for t in text.split(",")]
    for i in indices:
        if not 0 <= i < MAX_GROUND:
            raise _UsageError(f"element index {i} is outside [0, {MAX_GROUND})")
    return mask_of(indices)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        for line in text_lines:
            print(line)


def _report_out(args, report):
    if args.format == "json":
        sys.stdout.write(report.to_json(canonical=args.canonical))
    elif args.format == "csv":
        sys.stdout.write(report.summary_csv())
    else:
        print(f"command: {report.command}")
        for k, v in sorted(report.params.items()):
            print(f"  {k}: {v}")
        for k, v in sorted(report.summary.items()):
            print(f"{k}: {v}")
    if report.violations:
        return EXIT_VIOLATION
    if report.unknowns:
        return EXIT_UNKNOWN
    return EXIT_OK


def build_parser():
    """The parser; `main` makes config values its defaults, so the command
    line beats the config file, which beats MATROIDLAB_CACHE_DIR."""
    p = _Parser(prog="matroidlab", description=__doc__)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--budget", type=int, default=None,
                   help="node cap for minor searches")
    p.add_argument("--seed", type=int, default=None,
                   help="reseed randomized catalogs")
    p.add_argument("--cache-dir", default=catmod.cache_dir_from_env())
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--canonical", action="store_true",
                   help="byte-stable JSON reports (timing zeroed)")
    sub = p.add_subparsers(dest="command", required=True)
    reads = _Parser(add_help=False)
    reads.add_argument("--input", default="-")

    s = sub.add_parser("pg", help="emit the matrix of PG(n-1,q)")
    s.add_argument("n", type=int)
    s.add_argument("q", type=int)

    for name, hlp in (("eps", "point count"), ("round", "roundness"),
                      ("lines", "long lines")):
        s = sub.add_parser(name, help=hlp, parents=[reads])
        if name == "lines":
            s.add_argument("--min-points", type=int, default=3)

    s = sub.add_parser("connectivity", help="local connectivity of two sets",
                       parents=[reads])
    s.add_argument("--a", required=True, help="comma-separated element indices")
    s.add_argument("--b", required=True)

    s = sub.add_parser("find-minor", help="search for a small minor", parents=[reads])
    s.add_argument("--target", required=True, help="u2,5 style or 'fano'")

    sub.add_parser("max-line", help="longest line over all minors", parents=[reads])

    s = sub.add_parser("skew-dense", help="dense subset skew to a set", parents=[reads])
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--lam", required=True, help="rational, e.g. 4/5")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--k", type=int, required=True)

    s = sub.add_parser("round-restrict", help="dense round restriction", parents=[reads])
    s.add_argument("--policy", required=True,
                   help="comma-separated f(1),f(2),... (integers)")

    s = sub.add_parser("round-dense", help="round/dense dichotomy", parents=[reads])
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--t", type=int, required=True)

    s = sub.add_parser("line-plane", help="long line from a line and a plane",
                       parents=[reads])
    s.add_argument("--line", required=True)
    s.add_argument("--plane", required=True)
    s.add_argument("--q", type=int, required=True)

    for name in ("check-kung", "density-profile", "extremal-census"):
        s = sub.add_parser(name)
        s.add_argument("--catalog", required=True)
        s.add_argument("--l", type=int, required=True)

    s = sub.add_parser("verify-cert", help="replay a certificate", parents=[reads])
    s.add_argument("--cert", required=True)

    s = sub.add_parser("catalog", help="build or list catalogs")
    s.add_argument("action", choices=("build", "list"))
    s.add_argument("--name", default=None)
    s.add_argument("--out", default=None)

    sub.add_parser("is-pg", help="projective geometry recognizer", parents=[reads])

    s = sub.add_parser("gap-check", help="largest prime power <= l and l < 2q")
    s.add_argument("l", type=int)
    return p


def _subset_out(args, m, sub):
    _emit(args, {"subset": sorted(bits(sub)), "epsilon": m.epsilon(sub),
                 "rank": m.rank(sub)},
          [",".join(str(e) for e in bits(sub))])
    return EXIT_OK


def _cmd(args):
    cmd = args.command
    if cmd == "pg":
        sys.stdout.write(emit_matrix(pg(args.n, args.q)))
        return EXIT_OK
    if cmd == "verify-cert":  # a bad certificate is refused before any input is read
        with open(args.cert) as fh:
            cert = certificate_from_dict(json.load(fh))
    m = _load_matroid(args.input) if "input" in args else None
    if cmd == "eps":
        _emit(args, {"epsilon": m.epsilon(), "rank": m.rank_full},
              [str(m.epsilon())])
        return EXIT_OK
    if cmd == "lines":
        out = [{"elements": sorted(bits(f)), "points": m.epsilon(f)}
               for f in m.lines(args.min_points)]
        _emit(args, {"lines": out},
              [f"{row['points']} points: {row['elements']}" for row in out])
        return EXIT_OK
    if cmd == "round":
        ok, cover = m.roundness()
        payload = {"round": ok}
        lines = ["round" if ok else "not round"]
        if not ok:
            payload["certificate"] = certificate_to_dict(cover)
            lines.append(json.dumps(payload["certificate"], sort_keys=True))
        _emit(args, payload, lines)
        return EXIT_OK
    if cmd == "connectivity":
        val = m.local_connectivity(_mask_arg(args.a), _mask_arg(args.b))
        _emit(args, {"local_connectivity": val}, [str(val)])
        return EXIT_OK
    if cmd == "find-minor":
        target, tname = _parse_target(args.target)
        if target.rank_full == 2 and target.is_simple():
            outcome = has_u2n_minor(m, target.size, args.budget)
        else:
            outcome = minor_isomorphic(m, target, args.budget, target_name=tname)
        payload = {"status": outcome.status, "nodes": outcome.nodes}
        lines = [outcome.status]
        if outcome.status == FOUND:
            payload["certificate"] = certificate_to_dict(outcome.certificate)
            lines.append(json.dumps(payload["certificate"], sort_keys=True))
        _emit(args, payload, lines)
        return EXIT_OK if outcome.status != UNKNOWN else EXIT_UNKNOWN
    if cmd == "max-line":
        res = max_line_minor(m, args.budget)
        payload = {"points": res.points, "exact": res.exact, "nodes": res.nodes,
                   "certificate": certificate_to_dict(res.certificate)
                   if res.certificate else None}
        _emit(args, payload,
              [f"{res.points}{'' if res.exact else ' (inexact, budget hit)'}"])
        return EXIT_OK if res.exact else EXIT_UNKNOWN
    if cmd == "skew-dense":
        target = DensityTarget(_rational(args.lam), args.q, args.l, args.k)
        return _subset_out(args, m, skew_dense_subset(
            m, _mask_arg(args.a), _mask_arg(args.b), target))
    if cmd == "round-restrict":
        policy = GrowthPolicy.from_table(int(t) for t in args.policy.split(","))
        return _subset_out(args, m, round_restriction(m, policy))
    if cmd == "round-dense":
        outcome = round_dense_restriction(m, args.q, args.t)
        _emit(args, {"kind": outcome.kind, "subset": sorted(bits(outcome.subset)),
                     "claims": outcome.claims},
              [outcome.kind, ",".join(str(e) for e in bits(outcome.subset))])
        return EXIT_OK
    if cmd == "line-plane":
        cert = line_from_line_and_plane(m, _mask_arg(args.line),
                                        _mask_arg(args.plane), args.q)
        d = certificate_to_dict(cert)
        _emit(args, {"certificate": d}, [json.dumps(d, sort_keys=True)])
        return EXIT_OK
    if cmd in ("check-kung", "density-profile", "extremal-census"):
        catalog = catmod.registry_catalog(args.catalog, cache_dir=args.cache_dir,
                                          seed=args.seed)
        fn = {"check-kung": check_kung_bound, "density-profile": density_profile,
              "extremal-census": extremal_census}[cmd]
        report = fn(catalog, args.l, args.budget)
        return _report_out(args, report)
    if cmd == "verify-cert":
        ok = verify_certificate(cert, m)
        _emit(args, {"verified": ok}, ["verified" if ok else "FAILED"])
        return EXIT_OK if ok else EXIT_VIOLATION
    if cmd == "catalog":
        if args.action == "list":
            for name in sorted(catmod.REGISTRY):
                print(name)
            return EXIT_OK
        if not args.name:
            raise _UsageError("catalog build needs --name")
        catalog = catmod.registry_catalog(args.name, seed=args.seed)
        path = catmod.save_catalog(catalog, args.out or args.cache_dir or ".")
        print(path)
        return EXIT_OK
    if cmd == "is-pg":
        report = is_projective_geometry(m)
        payload = {"order": report.order, "plane": report.plane,
                   "failure": report.failure}
        _emit(args, payload,
              [f"order {report.order}" + (" (plane axioms only)" if report.plane else "")
               if report.recognized else f"no: {report.failure}"])
        return EXIT_OK
    if cmd == "gap-check":
        q = largest_prime_power_leq(args.l)
        ok = gap_check(args.l)
        _emit(args, {"l": args.l, "q": q, "l_lt_2q": ok}, [f"q={q} gap={'ok' if ok else 'FAILED'}"])
        return EXIT_OK if ok else EXIT_VIOLATION
    raise _UsageError(f"unhandled command {cmd}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become defaults: an option given on the command
            # line still wins, and argparse converts them like the option
            parser.set_defaults(**_read_config(args.config))
            args = parser.parse_args(argv)
        if args.budget is not None and args.budget < 1:
            raise _UsageError(f"budget must be >= 1, got {args.budget}")
        return _cmd(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        # malformed argument values (targets, rationals, masks, json)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MatroidlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
