"""The exit codes of `tools/solve_gate.py compare` on hand-written dumps."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_gate.py"
_spec = importlib.util.spec_from_file_location("solve_gate", TOOL)
solve_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_gate)

HASHES = dict.fromkeys(solve_gate.HASHED, "0" * 64)


def _problem(index, cost=-2.5, outcome="converged", failed=None, **hashes):
    if failed is not None:
        return {"set": "toy1d", "index": index, "failed": failed,
                "outcome": "failed"}
    return {"set": "toy1d", "index": index, "failed": None, "outcome": outcome,
            "cost": repr(cost), "iters_used": 4,
            "hashes": {**HASHES, **hashes}}


def _write(path, problems):
    path.write_text("".join(json.dumps(p) + "\n" for p in problems))
    return path


BASE = [_problem(0), _problem(1, cost=10.0, outcome="stalled"),
        _problem(2, failed="non-finite cost under the initial warm start")]


@pytest.mark.parametrize("change, rtol, code", [
    ({}, 0.0, 0),
    ({1: _problem(1, cost=10.0, outcome="stalled", X="1" * 64)}, 0.0, 0),
    ({0: _problem(0, cost=-2.5000001)}, 1e-6, 0),
    ({0: _problem(0, cost=-2.5000001)}, 0.0, 1),
    ({1: _problem(1, cost=10.5, outcome="stalled")}, 1e-3, 1),
    ({1: _problem(1, cost=10.0, outcome="capped")}, 0.0, 1),
    ({2: _problem(2)}, 0.0, 1),
    ({0: _problem(0, failed="backward pass failed at step 3")}, 0.0, 1),
])
def test_compare_exit_codes(tmp_path, capsys, change, rtol, code):
    a = _write(tmp_path / "a.jsonl", BASE)
    b = _write(tmp_path / "b.jsonl", [change.get(i, p) for i, p in enumerate(BASE)])
    assert solve_gate.main(["compare", str(a), str(b), "--rtol", str(rtol)]) == code
    assert capsys.readouterr().out.splitlines()[1].startswith("toy1d  3  ")


def test_compare_rejects_dumps_of_different_problems(tmp_path):
    a = _write(tmp_path / "a.jsonl", BASE)
    b = _write(tmp_path / "b.jsonl", BASE[:2])
    assert solve_gate.main(["compare", str(a), str(b)]) == 2
