"""Each demo's stdout, byte for byte, against tests/golden/<demo>.txt.

The demos print element, tensor and report reprs, so this locks the
rendering of everything they show.  After an intended output change,
regenerate a golden file with

    PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    golden = ROOT / "tests" / "golden" / f"{demo.stem}.txt"
    assert run.stdout == golden.read_bytes()
