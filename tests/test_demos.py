"""The scripts under demos/ run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (demo.name, proc.stderr)
