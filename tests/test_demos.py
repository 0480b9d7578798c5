"""The demo walkthroughs run to the end in a fresh interpreter. Between them
they call restarted_outer with and without a reference, analyze,
measure_remainder_gap and compute_statistics."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", ["quadratic_uncertainty.py", "mincut_uncertainty.py", "basis_tour.py"]
)
def test_demo_script_exits_0_without_warnings(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    out = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout and not out.stderr
