"""One benchmark call of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--tiny] [--trace]
                                [--setup-only] [--spans PATH]

Imports `trajrl` from the checkout's `src/`, loads the workload's config from
`perfbench/configs/`, builds the inputs, times the program call and runs the
checks that need the program's own objects.  Prints one JSON object as the
last line of standard output.

Every call covers two input sets: the reference inputs, made from
REFERENCE_SEED and compared exactly with `reference.json`, and the inputs made
from --seed, checked by invariants that hold at any seed.  The reference half
gives every run an exact correctness check and keeps half of the measured
work the same across seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

REFERENCE_SEED = 12345
SOLVE_WORKLOAD = "manipulator-solve"
WORKLOADS = {
    "pointmass-train": "pointmass.ini",
    "toy1d-nets": "toy1d.ini",
    SOLVE_WORKLOAD: "manipulator.ini",
}
# manipulator-solve: problems per input set.  At REFERENCE_SEED problem 4
# fails in its first backward pass, a known defect the run records.
SOLVE_PROBLEMS = {"reference": 32, "seeded": 32}

# Sizes for the benchmark's own tests; every layer still runs.
TINY_TRAIN = dict(n_episodes=4, iterations=2, m_updates=3, eval_count=2,
                  minibatch=16)
TINY_SOLVE = dict(reference=5, seeded=1, cap=3)


def import_trajrl():
    sys.path.insert(0, str(SRC))
    import trajrl
    import trajrl.config
    import trajrl.ilqr
    import trajrl.trainer
    if Path(trajrl.__file__).resolve().parent != SRC / "trajrl":
        raise ImportError(f"trajrl imported from {trajrl.__file__}, "
                          f"not from {SRC}")
    return trajrl


class Workload:
    """Inputs, program call, output summary and checks of one workload."""

    def __init__(self, trajrl, name: str, seed: int, tiny: bool):
        from trajrl.envs import cost_for, system_for
        self.trajrl = trajrl
        self.seeds = (REFERENCE_SEED, seed)
        self.rc = trajrl.config.load_config(HERE / "configs" / WORKLOADS[name])
        self.model, self.field = self.rc.model, self.rc.field
        self.system = system_for(self.model)
        self.cost = cost_for(self.model, self.field)
        self.is_train = name != SOLVE_WORKLOAD
        if self.is_train:
            base = replace(self.rc.train, **(TINY_TRAIN if tiny else {}))
            self.cfgs = [replace(base, seed=s) for s in self.seeds]
        else:
            self._build_solve(tiny)

    def _build_solve(self, tiny):
        from trajrl.envs import Region, sample_initial_states
        from trajrl.ilqr import RegularizerConfig
        sizes = TINY_SOLVE if tiny else SOLVE_PROBLEMS
        self.cap = TINY_SOLVE["cap"] if tiny else self.rc.train.max_iter_first
        self.n_ref = sizes["reference"]
        self.starts = (
            sample_initial_states(self.model, sizes["reference"],
                                  REFERENCE_SEED, Region.WORKSPACE)
            + sample_initial_states(self.model, sizes["seeded"],
                                    self.seeds[1], Region.WORKSPACE))
        self.warms = [np.zeros((self.model.t_max - s.t, self.model.m))
                      for s in self.starts]
        self.reg = RegularizerConfig(self.rc.train.reg_eps)

    def call(self):
        """The timed program call(s)."""
        if self.is_train:
            return [self._train(cfg) for cfg in self.cfgs]
        try:
            results = self.trajrl.ilqr.solve_batch(
                self.model, self.field, self.starts, self.warms, self.cap,
                self.reg, self.rc.train.tol)
            return results, []
        except self.trajrl.ilqr.BatchSolveError as err:
            return err.results, sorted(err.errors)

    def _train(self, cfg):
        try:
            return self.trajrl.trainer.train(cfg)[3]
        except Exception as err:  # noqa: BLE001 - an abort is an outcome
            return err

    # -- outputs ---------------------------------------------------------------

    def summarize(self, out) -> dict:
        """Outputs per input set: "reference" and "seeded"."""
        if self.is_train:
            parts = [_train_summary(reports) for reports in out]
        else:
            results, failed = out
            parts = [{"problems": [_problem_summary(r) for r in results[lo:hi]],
                      "failed": [i - lo for i in failed if lo <= i < hi]}
                     for lo, hi in ((0, self.n_ref),
                                    (self.n_ref, len(results)))]
        return dict(zip(("reference", "seeded"), parts))

    def outcome(self, summary: dict) -> dict:
        """final_cost and failed_frac over both input sets."""
        parts = summary.values()
        if self.is_train:
            costs = [p["reports"][-1]["eval_mean_cost"] for p in parts
                     if "aborted" not in p]
            # an aborted train counts all of its problems as failed
            failed = sum("aborted" in p for p in parts) / len(parts)
        else:
            costs = [q["cost"] for p in parts for q in p["problems"]
                     if q is not None]
            failed = sum(len(p["failed"]) for p in parts) / len(self.starts)
        return {"final_cost": float(np.mean(costs)) if costs else math.nan,
                "failed_frac": failed}

    def invariant_errors(self, out) -> list[str]:
        """Checks that hold at every seed, made with the program's objects."""
        if not self.is_train:
            return self._solve_invariants(*out)
        errs = []
        for cfg, reports in zip(self.cfgs, out):
            tag = f"seed {cfg.seed}"
            if isinstance(reports, Exception):
                errs.append(f"{tag}: train aborted: {reports}")
                continue
            if len(reports) != cfg.iterations:
                errs.append(f"{tag}: {len(reports)} reports for "
                            f"{cfg.iterations} iterations")
            for j, r in enumerate(reports, start=1):
                want = cfg.n_episodes + (j - 1) * cfg.later_batch
                if r.episodes_cum != want:
                    errs.append(f"{tag} iteration {j}: episodes_cum "
                                f"{r.episodes_cum} != {want}")
                if not 0.0 <= r.converged_frac <= 1.0:
                    errs.append(f"{tag} iteration {j}: converged_frac "
                                f"{r.converged_frac}")
                for key in ("eval_mean_cost", "to_cost_mean"):
                    if not math.isfinite(getattr(r, key)):
                        errs.append(f"{tag} iteration {j}: {key} not finite")
        return errs

    def _solve_invariants(self, results, failed) -> list[str]:
        u_bound = self.model.u_bound
        errs = []
        for i, (res, start, warm) in enumerate(zip(results, self.starts,
                                                   self.warms)):
            if res is None:
                if i not in failed:
                    errs.append(f"problem {i}: no result and not failed")
                continue
            if np.any(np.abs(res.traj.U) > u_bound):
                errs.append(f"problem {i}: control outside +-u_max")
            if not math.isfinite(res.cost):
                errs.append(f"problem {i}: cost {res.cost} is not finite")
            start_cost = rollout_cost(self.system, self.cost, start.x, warm)
            if not res.cost <= start_cost:
                errs.append(f"problem {i}: cost {res.cost} above the "
                            f"zero-control start's {start_cost}")
        return errs


def _train_summary(reports) -> dict:
    if isinstance(reports, Exception):
        return {"aborted": f"{type(reports).__name__}: {reports}"}
    return {"reports": [
        {"iteration": r.iteration, "episodes_cum": r.episodes_cum,
         "eval_mean_cost": r.eval_mean_cost, "to_cost_mean": r.to_cost_mean,
         "converged_frac": r.converged_frac} for r in reports]}


def _problem_summary(res):
    if res is None:
        return None
    return {"cost": res.cost, "iters_used": res.iters_used,
            "converged": bool(res.converged)}


def rollout_cost(system, cost, x0, u) -> float:
    """Cost of rolling x0 forward under the controls u, one step at a time,
    with the public System and Cost methods."""
    xs = [np.asarray(x0, dtype=float)]
    for k in range(u.shape[0]):
        xs.append(system.step_x(xs[-1], u[k]))
    X = np.array(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        step_costs = np.append(cost.stage(X[:-1], u), cost.terminal(X[-1]))
    return float(step_costs.sum())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    trajrl = import_trajrl()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        # the traced classes are known once the config is loaded, so
        # load_config is wrapped on its own, first
        tracer.patch(trajrl.config, "load_config", "config.load_config")
    wl = Workload(trajrl, args.workload, args.seed, args.tiny)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if tracer is not None:
        tracer.install(trajrl, type(wl.system), type(wl.cost))
        t0 = time.perf_counter()
        out = tracer.run(wl.call)
        wall = time.perf_counter() - t0
        tracer.uninstall()
    else:
        t0 = time.perf_counter()
        out = wl.call()
        wall = time.perf_counter() - t0

    summary = wl.summarize(out)
    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "summary": summary,
        "outcome": wl.outcome(summary),
        "errors": wl.invariant_errors(out),
    }
    if tracer is not None:
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer)
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
