"""The benchmark's own smoke test passes: every workload runs at a tiny
size, traced and untraced, and ends with a well-formed result line whose
correctness checks passed. A package change that makes a benchmark flow
raise, or print after its result line, fails here first."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
