"""matroidlab benchmark: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload pg-search --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all       # each workload in its own process

The library is imported from `src/` next to this directory.  A run sets up
the workload (import plus seeded inputs, repeated in fresh processes for a
median), then repeats the workload's pass, a fixed seed-determined list of
ops, while the next pass still fits in --seconds.  Every op's output is
checked outside the timed spans.  Times are medians over the passes (an
op's latency is its median over the passes); peak RSS is the process's
high-water mark after set-up and the first pass.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced pass,
then wraps the library's layer boundaries (bench/tracing.py) and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the full record, with the
deterministic counters, output digests and spans, is written to
bench/results/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("pg-search", "census", "procedures")
SETUP_RUNS = 5          # this process plus four fresh ones
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
perf = time.perf_counter

# name, unit, better, how it is computed (see layer_metrics)
PER_LAYER = [
    ("field.make_calls", "count", "lower", ("setup_calls", "field.make")),
    ("field.make_share", "share", "lower", ("setup_busy", "field.make")),
    ("geometry.pg_build_share", "share", "lower", ("setup_busy", "geometry.pg_build")),
    ("core.rank_calls", "count", "lower", ("calls", "core.rank")),
    ("core.rank_evals", "count", "lower", ("calls", "core.elim_gf2", "core.elim_tables")),
    ("core.memo_hit_ratio", "ratio", "higher", ("hit_ratio",)),
    ("core.memo_entries", "count", "lower", ("memo",)),
    ("core.rank_self_share", "share", "lower", ("self", "core.rank")),
    ("core.elim_tables_share", "share", "lower", ("busy", "core.elim_tables")),
    ("core.elim_gf2_share", "share", "lower", ("busy", "core.elim_gf2")),
    ("core.closure_calls", "count", "lower", ("calls", "core.closure")),
    ("core.closure_self_share", "share", "lower", ("self", "core.closure")),
    ("core.points_linear_calls", "count", "lower", ("calls", "core.points_linear")),
    ("core.points_generic_calls", "count", "lower", ("calls", "core.points_generic")),
    ("core.points_self_share", "share", "lower",
     ("self", "core.points_linear", "core.points_generic")),
    ("core.roundness_calls", "count", "lower", ("calls", "core.roundness")),
    ("core.roundness_share", "share", "lower", ("busy", "core.roundness")),
    ("minors.searches", "count", "lower", ("calls", "minors.search")),
    ("minors.nodes", "count", "lower", ("counter", "minors.search", "minors.nodes")),
    ("minors.early_exit_ratio", "ratio", "higher", ("early_exit",)),
    ("minors.search_self_share", "share", "lower", ("self", "minors.search")),
    ("geometry.recognizer_share", "share", "lower", ("busy", "geometry.recognizer")),
    ("certificates.verify_share", "share", "lower", ("busy", "certificates.verify")),
    ("procedures.skew_dense_self_share", "share", "lower", ("self", "procedures.skew_dense")),
    ("procedures.round_restriction_self_share", "share", "lower",
     ("self", "procedures.round_restriction")),
    ("harness.catalogs.build_share", "share", "lower", ("busy", "harness.catalogs.build")),
    ("harness.oracles.spot_check_share", "share", "lower",
     ("busy", "harness.oracles.spot_check")),
    ("harness.census.members", "count", "higher",
     ("counter", "harness.census.driver", "harness.census.members")),
    ("harness.census.driver_self_share", "share", "lower", ("self", "harness.census.driver")),
    ("harness.census.json_share", "share", "lower", ("busy", "harness.census.json")),
    ("trace.overhead_s", "s", "lower", ("overhead",)),
    ("trace.unattributed_share", "share", "lower", ("self", "op")),
]


def import_workloads():
    src = ROOT / "src"
    if not (src / "matroidlab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no matroidlab sources under {src}")
    sys.path.insert(0, str(src))
    import workloads
    return workloads


def setup(name: str, seed: int, tracer=None):
    """Import the library and generate the workload's inputs; the returned
    time covers both, as a fresh CLI process pays for both."""
    t0 = perf()
    workloads = import_workloads()
    if tracer is not None:
        tracer.install()
        tracer.begin_op()
    work = workloads.WORKLOADS[name]()
    work.setup(seed)
    if tracer is not None:
        tracer.end_op()
    return work, perf() - t0


def setup_probe(name: str, seed: int, trace: bool) -> dict:
    """Set up in a fresh process and report its time (and, traced, the
    set-up layers)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", name,
           "--seed", str(seed), "--trace", str(int(trace))]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(work, tracer, op_times, failures):
    """One pass over the workload's inputs; returns the summed op time.
    Output checks run outside the timed spans."""
    total = 0.0
    for label, inp in work.inputs:
        err = None
        if tracer is not None:
            tracer.begin_op()
        t0 = perf()
        try:
            out = work.run(label, inp)
        except Exception:
            err = traceback.format_exc(limit=4)
        dt = perf() - t0
        if tracer is not None:
            tracer.end_op()
        if err is None:
            try:
                err = work.check(label, inp, out)
            except Exception:
                err = traceback.format_exc(limit=4)
        op_times.append(dt)
        total += dt
        if err is not None:
            failures.append(f"{label}: {err}")
    return total


def op_latencies(times: list, per_pass: int):
    """(p50, tail label, tail) in seconds over the ops of one pass, each op
    timed by its median over the passes, so a burst of load on the host
    that slows one pass moves no op.  The tail is the highest listed
    percentile that leaves at least ten ops beyond it, so every run of a
    workload reports the same percentile; when a pass is too short for any,
    the slowest op."""
    by_op = sorted(statistics.median(times[i::per_pass]) for i in range(per_pass))
    p50 = statistics.median(by_op)
    for p in TAIL_PERCENTILES:
        if per_pass * (100 - p) / 100 >= 10:
            return p50, f"p{p:g}", by_op[math.ceil(p / 100 * per_pass) - 1]
    return p50, "slowest op", by_op[-1]


def layer_metrics(tracer, passes, traced_s, untraced_s, probes) -> dict:
    """Per-layer metrics, per pass; shares are of the traced op time (of the
    set-up time for set-up layers).  None marks a missing boundary."""
    layers = tracer.layers
    npass = len(passes)
    total = sum(traced_s)

    def agg(layer, i):
        return layers.get(layer, (0, 0.0, 0.0))[i]

    def probe_median(key, layer):
        vals = [p["layers"].get(layer, [0, 0.0, 0.0]) for p in probes]
        if key == "setup_calls":
            return int(statistics.median(v[0] for v in vals))
        return statistics.median(v[1] / p["setup_s"] for v, p in zip(vals, probes))

    out = {}
    for name, _unit, _better, (kind, *args) in PER_LAYER:
        needed = args[:1] if kind == "counter" else args
        if any(not tracer.has(layer) for layer in needed):
            out[name] = None
        elif kind in ("setup_calls", "setup_busy"):
            missing = not probes or any(args[0] in p["missing"] for p in probes)
            out[name] = None if missing else probe_median(kind, args[0])
        elif kind == "calls":
            out[name] = sum(agg(a, 0) for a in args) // npass
        elif kind in ("busy", "self"):
            i = 1 if kind == "busy" else 2
            out[name] = sum(agg(a, i) for a in args) / total
        elif kind == "counter":
            out[name] = passes[0][args[1]]
        elif kind == "hit_ratio":
            calls = agg("core.rank", 0)
            evals = agg("core.elim_gf2", 0) + agg("core.elim_tables", 0)
            ok = all(tracer.has(x) for x in ("core.rank", "core.elim_gf2", "core.elim_tables"))
            out[name] = (1 - evals / calls if calls else 0.0) if ok else None
        elif kind == "memo":
            ok = tracer.has("core.linear_init") and not tracer.memo_missing
            out[name] = tracer.memo_peak if ok else None
        elif kind == "early_exit":
            searches = agg("minors.search", 0)
            early = tracer.counters["minors.early_exits"]
            out[name] = (early / searches if searches else 0.0) \
                if tracer.has("minors.search") else None
        elif kind == "overhead":
            out[name] = statistics.median(traced_s) - untraced_s
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work, own_setup = setup(name, seed)
    probes = [setup_probe(name, seed, trace) for _ in range(SETUP_RUNS - 1)]
    setup_times = [own_setup] + [p["setup_s"] for p in probes]

    op_times, failures, pass_s, counts = [], [], [], []
    untraced_s = None
    tracer = None
    start = perf()
    if trace:
        untraced_s = run_pass(work, None, [], failures)
        tracer = tracing.Tracer()
        tracer.install()
    while True:
        t0 = perf()
        before = tracer.counts() if tracer else None
        pass_s.append(run_pass(work, tracer, op_times, failures))
        if len(pass_s) == 1:
            # later identical passes raise the high-water mark only through
            # allocator fragmentation, which would tie it to the pass count
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            counts.append({k: v - before.get(k, 0) for k, v in sorted(tracer.counts().items())})
        wall = perf() - t0
        if perf() - start + wall > seconds:
            break
    if tracer:
        tracer.uninstall()
        if any(c != counts[0] for c in counts):
            failures.append("per-pass counters differ between identical passes")

    attempted = len(op_times) + (len(work.inputs) if trace else 0)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "passes": len(pass_s), "ops_per_pass": len(work.inputs),
              "pass_s": pass_s, "attempted": attempted, "failed": len(failures),
              "failures": failures[:20], "outputs": work.outputs()}
    if not trace:
        p50_s, tail_label, tail_s = op_latencies(op_times, len(work.inputs))
        result["tail"] = {"percentile": tail_label, "samples": len(work.inputs),
                          "timings": len(op_times)}
        result["metrics"] = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(pass_s), "s"),
            "op_p50_ms": (p50_s * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        result["setup_runs_s"] = setup_times
    else:
        units = {n: u for n, u, _, _ in PER_LAYER}
        values = layer_metrics(tracer, counts, pass_s, untraced_s, probes)
        result["metrics"] = {n: (v, units[n]) for n, v in values.items()}
        result["untraced_pass_s"] = untraced_s
        result["counters"] = counts[0]
        result["layers_per_pass"] = {
            layer: {"calls": c / len(pass_s), "busy_s": b / len(pass_s),
                    "self_s": s / len(pass_s)}
            for layer, (c, b, s) in sorted(tracer.layers.items())}
        result["missing"] = tracer.missing
        result["spans"] = {"fields": ["op", "id", "parent", "layer", "start", "end"],
                           "rows": tracer.spans}
    return result


def report(result: dict) -> list:
    """Human-readable lines for one result."""
    name = result["workload"]
    frac = result["failed"] / result["attempted"]
    lines = [f"[{name}] seed={result['seed']} trace={result['trace']} "
             f"passes={result['passes']} ops/pass={result['ops_per_pass']} "
             f"attempted={result['attempted']} failed={result['failed']} fail_frac={frac:g}"]
    for msg in result["failures"][:5]:
        lines.append(f"[{name}] FAILED {msg.strip()}")
    for metric, (value, unit) in result["metrics"].items():
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        extra = ""
        if metric == "op_tail_ms":
            tail = result["tail"]
            extra = (f"  ({tail['percentile']} of {tail['samples']} ops, each the median "
                     f"of its {tail['timings'] // tail['samples']} timings)")
        lines.append(f"[{name}] {metric} = {shown}{extra}")
    if result["trace"]:
        total = sum(result["pass_s"]) / result["passes"]
        lines.append(f"[{name}] traced op time per pass {total:.4g} s, untraced "
                     f"{result['untraced_pass_s']:.4g} s; self time by layer:")
        for layer, row in sorted(result["layers_per_pass"].items(),
                                 key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"[{name}]   {layer:30s} calls {row['calls']:>12.0f}  busy "
                         f"{row['busy_s']:9.4f} s  self {row['self_s']:9.4f} s "
                         f"({row['self_s'] / total:6.1%})")
        for missing in result["missing"]:
            lines.append(f"[{name}] missing boundary: {missing}")
    return lines


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        ok = True
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            ok &= subprocess.run(cmd, timeout=900).returncode == 0
        return 0 if ok else 1

    if args.probe:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
        _, setup_s = setup(args.workload, args.seed, tracer)
        out = {"setup_s": setup_s}
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layers
            out["missing"] = [m.split(" ")[0] for m in tracer.missing]
        print(json.dumps(out))
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("\n".join(report(result)))
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
