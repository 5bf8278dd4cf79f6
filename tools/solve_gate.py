"""Solver gate: compare the solves of two source trees problem by problem.

    python3 tools/solve_gate.py dump --src DIR --out FILE
    python3 tools/solve_gate.py compare A B [--rtol R]

`dump` imports `trajrl` from DIR (a checkout's `src/`), solves the problem
sets of SETS from zero warm starts, each set in one `solve_batch` call, and
writes one JSON line per problem: its failure message, if any; its outcome
class (converged, stalled or capped, derived as the benchmark's tracer does,
or failed); repr(cost); iters_used; and sha256 hashes of X, U, the step costs
and V_bar_x (null for a calibration probe, which has none).  The configs are
read from this repository, so both trees solve the same problems.

`compare` reads two dumps, prints per set the problems whose failed status,
outcome class, cost (beyond the relative tolerance R, and how many of those
rose) or hashes changed, and exits 1 on any failed-status, class or cost
change, else 0.  A change that is meant to keep every bit runs it with
`--rtol 0` and expects no hash change either.  Exit 2 on usage errors and on
dumps that hold different problems.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]

# name, config (relative to the repository), problems, sampling seed, cap,
# the seed of the start times (None: every problem starts at t = 0), and the
# calibration probes (n, rank, batch_only) that lead the set, or None.  Probes
# start at t = 0, as the trainer poses them; the start times, drawn uniformly
# from [0, t_max), apply to the other problems.
SETS = (
    ("pointmass", "configs/pointmass.ini", 53, 11, 60, None, None),
    ("manipulator", "configs/manipulator.ini", 32, 11, 30, None, None),
    ("toy1d", "configs/toy1d.ini", 53, 11, 100, None, None),
    ("dubins", "configs/dubins.ini", 24, 11, 40, None, None),
    ("manipulator-solve", "perfbench/configs/manipulator.ini", 32, 12345, 15,
     None, None),
    ("manipulator-solve-64", "perfbench/configs/manipulator.ini", 64, 12345, 15,
     None, None),
    ("pointmass-mixed", "configs/pointmass.ini", 40, 11, 60, 13, None),
    ("pointmass-calibrate-mixed", "configs/pointmass.ini", 40, 12, 60, 14,
     (10, 5, False)),
    ("toy1d-calibrate", "configs/toy1d.ini", 40, 12, 100, None, (10, 10, True)),
)
HASHED = ("X", "U", "step_costs", "V_bar_x")


def _import_trajrl(src: Path):
    sys.path.insert(0, str(src))
    import trajrl
    import trajrl.config
    import trajrl.ilqr
    if Path(trajrl.__file__).resolve().parent != src / "trajrl":
        raise ImportError(f"trajrl imported from {trajrl.__file__}, not {src}")
    return trajrl


def _sha(a) -> str | None:
    if a is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _outcome(res, cap: int) -> str:
    if res.converged:
        return "converged"
    return "capped" if res.iters_used >= cap else "stalled"


def dump(src: Path, out: Path):
    trajrl = _import_trajrl(src.resolve())
    from trajrl.envs import Region, TimeState, sample_initial_states
    ilqr = trajrl.ilqr
    with open(out, "w") as fh:
        for name, config, count, seed, cap, t_seed, probes in SETS:
            rc = trajrl.config.load_config(REPO / config)
            model = rc.model
            starts = sample_initial_states(model, count, seed, Region.WORKSPACE)
            if t_seed is not None:
                times = np.random.default_rng(t_seed).integers(0, model.t_max, count)
                times[:probes[0] if probes else 0] = 0
                starts = [TimeState(s.x, int(t)) for s, t in zip(starts, times)]
            warms = [np.zeros((model.t_max - s.t, model.m)) for s in starts]
            try:
                results, errors = ilqr.solve_batch(
                    model, rc.field, starts, warms, cap,
                    ilqr.RegularizerConfig(rc.train.reg_eps), rc.train.tol,
                    probes and ilqr.Probes(*probes)), {}
            except ilqr.BatchSolveError as err:
                results, errors = err.results, err.errors
            for i, res in enumerate(results):
                line = {"set": name, "index": i, "failed": None}
                if res is None:
                    line.update(failed=str(errors[i]), outcome="failed")
                else:
                    arrays = (res.traj.X, res.traj.U, res.traj.step_costs,
                              res.V_bar_x)
                    line.update(outcome=_outcome(res, cap), cost=repr(res.cost),
                                iters_used=res.iters_used,
                                hashes=dict(zip(HASHED, map(_sha, arrays))))
                fh.write(json.dumps(line) + "\n")


def _load(path: Path) -> dict:
    with open(path) as fh:
        return {(d["set"], d["index"]): d for d in map(json.loads, fh)}


def compare(path_a: Path, path_b: Path, rtol: float) -> int:
    a, b = _load(path_a), _load(path_b)
    if a.keys() != b.keys():
        print("the dumps hold different problems", file=sys.stderr)
        return 2
    gated = 0
    print("set  problems  failed  class  cost>rtol  rose  hashes")
    for name in dict.fromkeys(key[0] for key in a):
        keys = [key for key in a if key[0] == name]
        failed = cls = beyond = rose = hashes = 0
        for key in keys:
            pa, pb = a[key], b[key]
            if (pa["failed"] is None) != (pb["failed"] is None):
                failed += 1
                continue
            if pa["failed"] is not None:
                continue
            cls += pa["outcome"] != pb["outcome"]
            ca, cb = float(pa["cost"]), float(pb["cost"])
            if abs(cb - ca) > rtol * abs(ca):
                beyond += 1
                rose += cb > ca
            hashes += pa["hashes"] != pb["hashes"]
        gated += failed + cls + beyond
        print(f"{name}  {len(keys)}  {failed}  {cls}  {beyond}  {rose}  {hashes}")
    return 1 if gated else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="solve the problem sets and write a dump")
    p_dump.add_argument("--src", type=Path, required=True)
    p_dump.add_argument("--out", type=Path, required=True)
    p_cmp = sub.add_parser("compare", help="compare two dumps")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    p_cmp.add_argument("--rtol", type=float, default=0.0)
    args = ap.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.out)
        return 0
    return compare(args.a, args.b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
