"""The benchmark's own contract: every workload's traced run on tiny inputs,
and one untraced full-size run, must reproduce the committed fixed-seed
reference exactly.

A change of result bits, or a renamed function that the benchmark's tracer
wraps, fails here instead of in a benchmark run.  The tiny inputs barely reach
a second line-search round, so the full-size manipulator solve checks the
solver paths that only longer solves take.  Only reads `perfbench/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _assert_correct(*args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0", *args],
        cwd=REPO, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr


@pytest.mark.parametrize("workload", ["pointmass-train", "toy1d-nets",
                                      "manipulator-solve"])
def test_tiny_traced_benchmark_run_is_correct(workload):
    _assert_correct("--workload", workload, "--tiny", "--trace", "1")


def test_full_size_manipulator_solve_is_correct():
    _assert_correct("--workload", "manipulator-solve", "--trace", "0")
