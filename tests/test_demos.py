"""The quick demos run to completion.  Demos 03, 06 and 08 take 10-50 s;
test_acceptance.py covers the same constructions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name",
    [
        "01_fields_and_lifting.py",
        "02_linear_systems.py",
        "04_containment_and_trace.py",
        "05_plane_curve_chains.py",
        "07_singular_quintics.py",
    ],
)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
