"""The benchmark's own contract, run on tiny inputs: every workload's traced
run must reproduce its committed fixed-seed reference exactly.

A change of result bits, or a renamed function that the benchmark's tracer
wraps, fails here instead of in a benchmark run.  Only reads `perfbench/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["pointmass-train", "toy1d-nets",
                                      "manipulator-solve"])
def test_tiny_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--tiny", "--seconds", "0", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
