"""The traced benchmark wraps package functions by name (for example
``witnesses.det_poly_matrix``); a rename in ``src/`` that breaks it must
fail the test suite, not only a later benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
