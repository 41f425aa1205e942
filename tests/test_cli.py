"""End-to-end CLI behavior: piping, reports, certificates, exit codes."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import matroidlab
from matroidlab import bits, emit_matrix, pg
from matroidlab.harness.catalogs import fano_plus_point
from matroidlab.harness.cli import main


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pg_pipe_eps(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["pg", "3", "2"])
    assert code == 0
    code, out, _ = run(capsys, monkeypatch, ["eps"], stdin=out)
    assert code == 0
    assert out.strip() == "7"


def test_round_command(capsys, monkeypatch, tmp_path):
    path = tmp_path / "fano.mat"
    path.write_text(emit_matrix(pg(3, 2)))
    code, out, _ = run(capsys, monkeypatch, ["round", "--input", str(path)])
    assert code == 0 and out.strip() == "round"


def test_lines_json(capsys, monkeypatch):
    matrix = emit_matrix(pg(3, 2))
    code, out, _ = run(capsys, monkeypatch,
                       ["--format", "json", "lines", "--min-points", "3"],
                       stdin=matrix)
    assert code == 0
    assert len(json.loads(out)["lines"]) == 7


def test_connectivity(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["connectivity", "--a", "0,1", "--b", "2,3"],
                       stdin=emit_matrix(pg(3, 2)))
    assert code == 0
    assert out.strip() in {"0", "1", "2"}


def test_find_minor_fano_plus_point(capsys, monkeypatch, tmp_path):
    m, _, _, _ = fano_plus_point()
    # persist the instance through the matrix format
    from matroidlab import LinearMatroid
    base = m.base
    cols = [base.columns[i] for i in bits(m.live)]
    flat = LinearMatroid(base.field, cols)
    path = tmp_path / "fano-plus-point.mat"
    path.write_text(emit_matrix(flat))
    code, out, _ = run(capsys, monkeypatch,
                       ["find-minor", "--target", "u2,5", "--input", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "found"
    assert "contraction-line" in out


def test_find_minor_absent(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["find-minor", "--target", "u2,4"],
                       stdin=emit_matrix(pg(3, 2)))
    assert code == 0 and out.strip() == "absent"


def test_find_minor_checks_target_size_before_tabulating(capsys, monkeypatch):
    # 2^18 subsets of u3,18 are never ranked: the size cap refuses it first
    stdin = emit_matrix(pg(3, 2))
    tracemalloc.start()
    try:
        code, _, err = run(capsys, monkeypatch, ["find-minor", "--target", "u3,18"],
                           stdin=stdin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "cap is 9" in err
    assert peak < 256 * 1024


def test_max_line_budget_exit_code(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["--budget", "1", "max-line"],
                       stdin=emit_matrix(pg(4, 2)))
    assert code == 3
    assert "inexact" in out


def test_check_kung_cli(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["--format", "json", "check-kung",
                        "--catalog", "pg3q2-restrictions", "--l", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["violations"] == []
    assert len(payload["summary"]["extremal"]) >= 1


def test_verify_cert_roundtrip(capsys, monkeypatch, tmp_path):
    matrix = emit_matrix(pg(3, 2))
    code, out, _ = run(capsys, monkeypatch,
                       ["--format", "json", "max-line"], stdin=matrix)
    cert = json.loads(out)["certificate"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, monkeypatch,
                       ["verify-cert", "--cert", str(cert_path)], stdin=matrix)
    assert code == 0 and out.strip() == "verified"
    # tamper: claim one more point than the line has
    cert["claims"]["points"] += 1
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, monkeypatch,
                       ["verify-cert", "--cert", str(cert_path)], stdin=matrix)
    assert code == 1 and out.strip() == "FAILED"


def test_usage_error_exit_2(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["find-minor", "--target", "zzz"],
                       stdin=emit_matrix(pg(3, 2)))
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["find-minor", "--target", "u2"],
    ["skew-dense", "--a", "0", "--b", "1", "--lam", "four/5",
     "--q", "2", "--l", "2", "--k", "1"],
    ["connectivity", "--a", "0,x", "--b", "1"],
    ["round-restrict", "--policy", "1,two"],
    ["skew-dense", "--a", "0", "--b", "1", "--lam", "1e-999999",
     "--q", "2", "--l", "2", "--k", "1"],
])
def test_malformed_values_exit_2(capsys, monkeypatch, argv):
    code, _, err = run(capsys, monkeypatch, argv, stdin=emit_matrix(pg(3, 2)))
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("a", ["100000000", "0,1024", "-1"])
def test_mask_values_range_checked_before_allocating(capsys, monkeypatch, a):
    stdin = emit_matrix(pg(3, 2))
    tracemalloc.start()
    try:
        code, _, err = run(capsys, monkeypatch,
                           ["connectivity", "--a", a, "--b", "1"], stdin=stdin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "usage error" in err
    assert peak < 256 * 1024


def test_matrix_header_width_checked_before_allocating(capsys, monkeypatch):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, monkeypatch, ["eps"], stdin="2 0 2000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "line 1" in err
    assert peak < 256 * 1024


def test_verify_cert_non_object_claims_exit_2(capsys, monkeypatch, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"type": "minor-embedding", "claims": [1],
                                "sets": {"contract": [], "delete": [],
                                         "mapping": [0, 1, 2]}}))
    code, _, err = run(capsys, monkeypatch, ["verify-cert", "--cert", str(cert)],
                       stdin=emit_matrix(pg(3, 2)))
    assert code == 2 and "error" in err


def test_verify_cert_bad_json_exit_2(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "cert.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, monkeypatch,
                       ["verify-cert", "--cert", str(bad)],
                       stdin=emit_matrix(pg(3, 2)))
    assert code == 2


def test_unknown_command_exit_2(capsys, monkeypatch):
    code, _, _ = run(capsys, monkeypatch, ["frobnicate"])
    assert code == 2


def test_matrix_parse_error_exit_2(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["eps"], stdin="2 1 2\n1 x\n")
    assert code == 2
    assert "line 2" in err


def test_catalog_build_and_list(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, monkeypatch, ["catalog", "list"])
    assert code == 0 and "pg3q2-restrictions" in out
    code, out, _ = run(capsys, monkeypatch,
                       ["catalog", "build", "--name", "random-gf3-r3",
                        "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / out.strip().split("/")[-1]).read_text())
    assert manifest["name"] == "random-gf3-r3"


def test_catalog_build_seed_override(capsys, monkeypatch, tmp_path):
    code, out1, _ = run(capsys, monkeypatch,
                        ["--seed", "99", "catalog", "build",
                         "--name", "random-gf2-r4", "--out", str(tmp_path / "a")])
    assert code == 0
    code, out2, _ = run(capsys, monkeypatch,
                        ["catalog", "build", "--name", "random-gf2-r4",
                         "--out", str(tmp_path / "b")])
    assert code == 0
    a = json.loads((tmp_path / "a" / out1.strip().split("/")[-1]).read_text())
    b = json.loads((tmp_path / "b" / out2.strip().split("/")[-1]).read_text())
    assert a["spec"]["seed"] == 99 and b["spec"]["seed"] == 7


def test_config_file(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("format=json\n")
    code, out, _ = run(capsys, monkeypatch,
                       ["--config", str(cfg), "eps"], stdin=emit_matrix(pg(3, 2)))
    assert code == 0
    assert json.loads(out)["epsilon"] == 7


def test_census_uses_cache_dir(capsys, monkeypatch, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "--format", "json", "--canonical",
            "check-kung", "--catalog", "random-gf3-r3", "--l", "4"]
    code, out1, _ = run(capsys, monkeypatch, argv)
    assert code == 0
    manifests = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
    assert manifests  # catalog persisted on first run
    code, out2, _ = run(capsys, monkeypatch, argv)  # second run loads the cache
    assert code == 0
    assert out1 == out2


def test_config_unknown_key(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("belief=7\n")
    code, _, err = run(capsys, monkeypatch, ["--config", str(cfg), "pg", "3", "2"])
    assert code == 2 and "unknown config key" in err


def test_config_format_checked_like_the_option(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("format=xml\n")
    code, out, err = run(capsys, monkeypatch, ["--config", str(cfg), "eps"],
                         stdin=emit_matrix(pg(3, 2)))
    assert code == 2 and out == "" and "format 'xml'" in err


def test_gap_check_cli(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["gap-check", "6"])
    assert code == 0 and "q=5" in out


def test_gap_check_above_cap_is_usage_error(capsys, monkeypatch):
    from matroidlab.procedures import MAX_L

    code, _, err = run(capsys, monkeypatch, ["gap-check", str(MAX_L + 1)])
    assert code == 2 and f"l <= {MAX_L}" in err


def test_cli_and_census_run_without_numpy():
    script = ("import sys\n"
              "import matroidlab, matroidlab.harness.census\n"
              "from matroidlab.harness.cli import main\n"
              "assert main(['gap-check', '6']) == 0\n"
              "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = str(Path(matroidlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_is_pg_cli(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["is-pg"], stdin=emit_matrix(pg(4, 2)))
    assert code == 0 and out.strip() == "order 2"


def test_skew_dense_cli(capsys, monkeypatch):
    argv = ["--format", "json", "skew-dense", "--a",
            ",".join(str(i) for i in range(14)), "--b", "14",
            "--lam", "4/5", "--q", "2", "--l", "2", "--k", "1"]
    code, out, _ = run(capsys, monkeypatch, argv, stdin=emit_matrix(pg(4, 2)))
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] > 0.8 * 0.5 * 2 ** payload["rank"]


def test_round_dense_cli(capsys, monkeypatch, tmp_path):
    from matroidlab.harness.catalogs import two_lines_rank_3
    m, _, _ = two_lines_rank_3()
    code, out, _ = run(capsys, monkeypatch,
                       ["round-dense", "--q", "4", "--t", "1"],
                       stdin=emit_matrix(m))
    assert code == 0
    assert out.splitlines()[0] == "round-dense"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_usage_error(capsys, monkeypatch, budget):
    code, out, err = run(capsys, monkeypatch, ["--budget", budget, "max-line"],
                         stdin=emit_matrix(pg(4, 2)))
    assert code == 2 and out == ""
    assert "usage error" in err and "budget" in err


def test_config_budget_below_one_is_usage_error(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("budget=0\n")
    code, out, err = run(capsys, monkeypatch, ["--config", str(cfg), "max-line"],
                         stdin=emit_matrix(pg(4, 2)))
    assert code == 2 and out == ""
    assert "usage error" in err and "budget" in err


def _kung_json(capsys, monkeypatch, seed_args, extra=()):
    argv = [*extra, *seed_args, "--format", "json", "--canonical",
            "check-kung", "--catalog", "random-gf2-r4", "--l", "2"]
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 0
    return json.loads(out)


def test_census_seed_reseeds_catalog(capsys, monkeypatch, tmp_path):
    five = _kung_json(capsys, monkeypatch, ["--seed", "5"])
    nine = _kung_json(capsys, monkeypatch, ["--seed", "9"])
    assert five["params"]["spec"]["seed"] == 5 and nine["params"]["spec"]["seed"] == 9
    # the members themselves change, not only the recorded spec
    assert five["records"] != nine["records"]
    assert _kung_json(capsys, monkeypatch, ["--seed", "5"]) == five
    # --seed 0 is honoured and overrides a config seed
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("seed=5\n")
    zero = _kung_json(capsys, monkeypatch, ["--seed", "0"], ["--config", str(cfg)])
    assert zero == _kung_json(capsys, monkeypatch, ["--seed", "0"])
    assert zero["params"]["spec"]["seed"] == 0 and zero["records"] != five["records"]
    assert _kung_json(capsys, monkeypatch, [], ["--config", str(cfg)]) == five


def test_command_line_format_beats_config(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("format=json\n")
    code, out, _ = run(capsys, monkeypatch, ["--config", str(cfg), "--format", "text", "eps"],
                       stdin=emit_matrix(pg(3, 2)))
    assert code == 0 and out == "7\n"


def test_config_cache_dir_beats_environment(capsys, monkeypatch, tmp_path):
    env_dir, cfg_dir = tmp_path / "env", tmp_path / "cfg"
    monkeypatch.setenv("MATROIDLAB_CACHE_DIR", str(env_dir))
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"cache_dir={cfg_dir}\n")
    code, _, _ = run(capsys, monkeypatch, ["--config", str(cfg), "check-kung",
                                           "--catalog", "random-gf3-r3", "--l", "4"])
    assert code == 0
    assert any(p.suffix == ".json" for p in cfg_dir.iterdir())
    assert not env_dir.exists()
