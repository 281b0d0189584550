"""The benchmark harness still tells clean results from damaged ones
against the current library."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_self_test_passes():
    # each workload on a small input, clean and with every result
    # damaged; the regrasp damage check reads system.a and system.b
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
