"""The benchmark's tracing (perfbench/tracing.py) wraps library methods by
name, reads the ``(rows, pivots)`` shape of ``Matrix.row_echelon`` and the
bases and d2 of ``build_complex``; a rename or a changed result shape must
fail here, not only under ``perfbench/run.py --trace 1``."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
from perfbench.tracing import Tracer
tracer = Tracer()
tracer.instrument()
from hopfalg import make_K
from hopfalg.cobar import h2_report
from hopfalg.structure import p2_space
h2_report(make_K(), 3)
p2_space(make_K())
first = tracer.take_counts()
h2_report(make_K(), 6)
p2_space(make_K())
print(json.dumps([first, tracer.take_counts()]))
"""


def test_tracer_instruments_the_library_and_counts_eliminations():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # each bound reads a new K, so each builds the complex once: up to
    # the bound 3 below G' = 4, and up to G' for the bound 6; rank
    # profiles bypass row_echelon, so the P2 kernel is what reaches it
    for counts in json.loads(run.stdout):
        assert counts["exactlin.row_echelon.calls"] > 0
        assert counts["cobar.build_complex.calls"] == 1
        assert counts["cobar.d2_nnz"] > 0
