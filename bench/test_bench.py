"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/test_bench.py

The same-seed test runs each workload twice with tracing on at the
shortest run length (one untraced and one traced pass); it takes about two
minutes on a 2-CPU machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

COUNTERS = ("minors.nodes", "core.rank_evals", "core.memo_entries",
            "harness.census.members")


def _traced_run(workload: str, seed: int) -> dict:
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                   check=True, capture_output=True, timeout=600)
    path = BENCH / "results" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_runs_repeat_counters(workload):
    first = _traced_run(workload, 3)
    second = _traced_run(workload, 3)
    assert first["failed"] == second["failed"] == 0, first["failures"] + second["failures"]
    assert first["counters"] == second["counters"]
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["outputs"] == second["outputs"]  # census digests and statuses


def test_renamed_boundary_is_reported_missing(monkeypatch):
    import matroidlab as ml

    renamed = [b if b[0] != "minors.search" else b[:2] + ("max_line_minor_v2", True)
               for b in tracing.BOUNDARIES]
    monkeypatch.setattr(tracing, "BOUNDARIES", renamed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        ml.max_line_minor(ml.pg(3, 2))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert not tracer.has("minors.search") and tracer.has("core.rank")
    values = run.layer_metrics(tracer, [tracer.counts()], [1.0], 1.0, [])
    assert values["minors.searches"] is None and values["minors.nodes"] is None
    assert values["core.rank_calls"] > 0


def test_uninstall_restores_every_binding():
    import matroidlab as ml
    from matroidlab.harness import census

    before = (ml.max_line_minor, census.max_line_minor, ml.LinearMatroid._rank_impl)
    tracer = tracing.Tracer()
    tracer.install()
    assert census.max_line_minor is not before[1]
    tracer.uninstall()
    assert (ml.max_line_minor, census.max_line_minor, ml.LinearMatroid._rank_impl) == before


def test_tail_percentile_is_fixed_by_pass_size():
    times = [float(i) for i in range(1, 301)]
    # two passes of 150 ops: op i takes i + 1 and i + 151, median i + 76
    assert run.op_latencies(times, 150) == (150.5, "p90", 210.0)
    # three passes of 100 ops: op i's median is i + 101
    assert run.op_latencies(times, 100) == (150.5, "p90", 190.0)
    assert run.op_latencies([1.0, 9.0, 3.0, 4.0, 2.0, 5.0, 3.0, 4.0], 4) \
        == (3.5, "slowest op", 7.0)


def test_one_slow_pass_moves_no_op():
    calm = [1.0, 2.0, 3.0] * 30
    slowed = calm[:60] + [t * 3 for t in calm[60:]]
    assert run.op_latencies(slowed, 30) == run.op_latencies(calm, 30)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
