"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these runs out of the repository's default test
collection; they take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import compare  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads_in_order():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_end_to_end_and_emits_the_declared_metrics(workload):
    res = result(bench(ROOT, "--workload", workload, "--seed", "7",
                       "--seconds", "0", "--trace", "0", "--tiny"))
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == E2E
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_layer_metric(workload):
    res = result(bench(ROOT, "--workload", workload, "--seed", "7",
                       "--seconds", "0", "--trace", "1", "--tiny"))
    assert res["correct"] is True
    assert set(res["metrics"]) == PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_phases_add_up_to_the_traced_wall(workload):
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload,
           "--seed", "7", "--tiny", "--trace"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    phases = {k: v for k, v in out["layers"].items() if k.startswith("phase.")}
    assert len(phases) == 6
    assert phases["phase.other_s"] >= 0.0          # phases do not overlap
    assert sum(phases.values()) == pytest.approx(out["wall_s"], abs=1e-3)


def test_layer_map_covers_every_layer_metric():
    groups = json.loads((HERE / "layers.json").read_text())
    names = [m for g in groups for m in g["metrics"]]
    assert sorted(names) == sorted(PER_LAYER)
    assert all(g["moves"] in E2E | {"final_cost", "failed_frac", None}
               for g in groups)


def test_compare_flags_any_difference():
    ref = json.loads((HERE / "reference.json").read_text())["workloads"]
    want = ref["pointmass-train"]
    assert compare(want, want) == []
    got = json.loads(json.dumps(want))
    got["reports"][-1]["eval_mean_cost"] += 1e-12
    assert compare(got, want) != []
    got = json.loads(json.dumps(ref["manipulator-solve"]))
    got["failed"] = []
    assert compare(got, ref["manipulator-solve"]) != []


def _checkout(tmp_path: Path, with_src: bool) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_perturbed_reference_makes_the_run_incorrect(tmp_path):
    root = _checkout(tmp_path, with_src=True)
    path = root / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())
    problem = ref["workloads"]["manipulator-solve/tiny"]["problems"][0]
    problem["cost"] += 1e-9
    path.write_text(json.dumps(ref))
    res = result(bench(root, "--workload", "manipulator-solve", "--seed", "7",
                       "--seconds", "0", "--trace", "0", "--tiny"))
    assert res["correct"] is False
    assert res["failed"] == res["attempted"]


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = bench(root, "--workload", "toy1d-nets", "--seed", "1",
                 "--seconds", "10", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
