"""Span tracer for the benchmark's traced run, and the per-layer metrics
derived from its spans.

The tracer replaces functions at the module or class attribute that the
program's callers look up, so no program file changes.  Each call becomes a
span (name, start, end, parent) kept in compact in-memory arrays; the spans
are written out once the traced call has returned.
"""

from __future__ import annotations

import inspect
import time
from array import array
from pathlib import Path

import numpy as np

# Phase of a span that runs directly under the workload call, by span name.
# Other top-level nets.* spans (the update loop) count as "nets"; all
# remaining time, traced or not, lands in "other".
PHASE_OF = {
    "ilqr.calibrate_max_iter": "calibrate",
    "ilqr.solve_batch": "solve",
    "trainer.bic_select": "solve",        # start selection for the TO batch
    "nets.actor_rollout": "solve",        # warm starts for the TO batch
    "ilqr.kstep_targets": "targets",
    "buffer.push_many": "targets",
    "trainer.evaluate_policy_costs": "eval",
    "buffer.sample_minibatch": "nets",
}
PHASES = ("calibrate", "solve", "targets", "nets", "eval", "other")

ENVS_SPANS = ("envs.step_x", "envs.jacobians", "envs.stage",
              "envs.stage_derivs", "envs.terminal", "envs.terminal_derivs")

# Functions reported per call: median, tail and count.
PER_CALL = (
    "envs.step_x", "envs.jacobians", "envs.stage_derivs", "envs.stage",
    "ilqr.kstep_targets", "buffer.push_many", "nets.actor_rollout",
    "trainer.bic_select",
    "nets.critic_loss", "nets.actor_loss", "nets.std_critic_loss",
    "nets.adam_step", "nets.polyak", "nets.mlp_forward",
    "buffer.sample_minibatch",
)

TAIL_LADDER = (99.999, 99.99, 99.9, 99.0, 90.0, 50.0)
ROOT = "workload"


class Tracer:
    """Records nested spans of wrapped calls; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.batches: dict[int, dict] = {}   # solve_batch span -> outcomes
        self.buffer_fill = 0
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def traced(self, name: str, fn, on_exit=None):
        """Return fn wrapped in a span; on_exit(idx, args, kwargs, out, err)
        runs after the span has closed."""
        nid = self._name_id(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                ends[idx] = clock()
                stack.pop()
                if on_exit is not None:
                    on_exit(idx, args, kwargs, None, err)
                raise
            ends[idx] = clock()
            stack.pop()
            if on_exit is not None:
                on_exit(idx, args, kwargs, out, None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, on_exit=None):
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original if had_own else None))
        setattr(owner, attr, self.traced(name, original, on_exit))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def run(self, fn, *args):
        """Call fn under the root span."""
        return self.traced(ROOT, fn)(*args)

    # -- outcome hooks ---------------------------------------------------------

    def _solve_batch_exit(self, signature):
        def on_exit(idx, args, kwargs, out, err):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            warms = bound.arguments["warmstarts"]
            if err is None:
                results, failed = out, 0
            elif hasattr(err, "errors"):         # BatchSolveError
                results, failed = err.results, len(err.errors)
            else:
                results, failed = [], len(warms)
            self.batches[idx] = {
                "max_iter": int(bound.arguments["max_iter"]),
                "horizon": sum(len(w) for w in warms),
                "problems": len(warms),
                "failed": failed,
                "iters": [r.iters_used for r in results if r is not None],
                "converged": [bool(r.converged) for r in results if r is not None],
            }
        return on_exit

    def _push_exit(self, idx, args, kwargs, out, err):
        if err is None:
            self.buffer_fill = len(args[0])

    def install(self, trajrl, system_cls, cost_cls):
        """Wrap the layer entry points the workloads reach."""
        ilqr, trainer, nets, buffer = (trajrl.ilqr, trajrl.trainer,
                                       trajrl.nets, trajrl.buffer)
        batch_exit = self._solve_batch_exit(inspect.signature(ilqr.solve_batch))
        # trainer imported these names, so wrap them where trainer looks them
        # up; calibration looks solve_batch up in ilqr.
        for mod in (ilqr, trainer):
            self.patch(mod, "solve_batch", "ilqr.solve_batch", batch_exit)
        self.patch(trainer, "kstep_targets", "ilqr.kstep_targets")
        self.patch(trainer, "calibrate_max_iter", "ilqr.calibrate_max_iter")
        self.patch(trainer, "evaluate_policy_costs",
                   "trainer.evaluate_policy_costs")
        self.patch(trainer, "select_initial_states_bic", "trainer.bic_select")
        for fn in ("mlp_forward", "value_and_state_grad", "critic_loss",
                   "actor_loss", "std_critic_loss", "adam_step", "polyak",
                   "actor_rollout"):
            self.patch(nets, fn, f"nets.{fn}")
        self.patch(buffer.ReplayBuffer, "push_many", "buffer.push_many",
                   self._push_exit)
        self.patch(buffer.ReplayBuffer, "sample_minibatch",
                   "buffer.sample_minibatch")
        self.patch(system_cls, "step_x", "envs.step_x")
        self.patch(system_cls, "jacobians", "envs.jacobians")
        for fn in ("stage", "stage_derivs", "terminal", "terminal_derivs"):
            self.patch(cost_cls, fn, f"envs.{fn}")

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def tail_value(values: np.ndarray) -> float:
    """Highest ladder percentile with at least ten samples beyond it (the
    maximum when there are fewer than twenty samples)."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return float(np.percentile(values, pct))
    return float(values.max())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced workload call."""
    sp = tracer.arrays()
    names = tracer.names
    name_of = [names[i] for i in sp["name"]]
    dur = sp["end"] - sp["start"]
    parent = sp["parent"]
    roots = [i for i, nm in enumerate(name_of) if nm == ROOT]
    if len(roots) != 1:
        raise RuntimeError(f"expected one root span, found {len(roots)}")
    root = roots[0]

    # top[i]: the span directly under the root that span i descends from.
    # A parent is always recorded before its children.
    top = np.full(len(dur), -1)
    for i in range(root + 1, len(dur)):
        p = parent[i]
        if p == root:
            top[i] = i
        elif p > root:
            top[i] = top[p]

    def phase(i):
        nm = name_of[i]
        if nm in PHASE_OF:
            return PHASE_OF[nm]
        return "nets" if nm.startswith("nets.") else "other"

    wall = float(dur[root])
    out: dict[str, float] = {}
    phase_s = dict.fromkeys(PHASES, 0.0)
    for i in np.flatnonzero(parent == root):
        phase_s[phase(i)] += float(dur[i])
    # "other" takes the remainder: other top-level spans and untraced code
    phase_s["other"] = wall - sum(v for k, v in phase_s.items() if k != "other")
    for k in PHASES:
        out[f"phase.{k}_s"] = phase_s[k]

    # training solves: solve_batch spans directly under the workload call
    solve_idx = [i for i in np.flatnonzero(parent == root)
                 if name_of[i] == "ilqr.solve_batch"]
    in_solve = np.isin(top, solve_idx)
    is_envs = np.isin(sp["name"], [names.index(n) for n in ENVS_SPANS
                                   if n in names])
    outer_envs = is_envs & ~np.isin(parent, np.flatnonzero(is_envs))
    solve_s = float(dur[solve_idx].sum())
    out["ilqr.solve_s"] = solve_s
    out["ilqr.self_s"] = solve_s - float(dur[outer_envs & in_solve].sum())

    batches = [tracer.batches[i] for i in solve_idx]
    iters = [it for b in batches for it in b["iters"]]
    attempted = sum(b["problems"] for b in batches)
    total_iters = sum(iters)
    out["ilqr.iters"] = float(total_iters)
    out["ilqr.ms_per_iter"] = 1e3 * solve_s / total_iters if total_iters else 0.0
    ratios = [max(b["iters"]) / float(np.median(b["iters"]))
              for b in batches if b["iters"]]
    out["ilqr.iters_max_over_p50"] = float(np.median(ratios)) if ratios else 0.0
    conv = capped = stalled = 0
    for b in batches:
        for it, ok in zip(b["iters"], b["converged"]):
            conv += ok
            capped += (not ok) and it >= b["max_iter"]
            stalled += (not ok) and it < b["max_iter"]
    denom = max(attempted, 1)
    out["ilqr.converged_frac"] = conv / denom
    out["ilqr.capped_frac"] = capped / denom
    out["ilqr.stalled_frac"] = stalled / denom
    out["ilqr.failed"] = float(sum(b["failed"] for b in batches))
    step_id = names.index("envs.step_x") if "envs.step_x" in names else -1
    step_calls = int(((sp["name"] == step_id) & in_solve).sum())
    per_step_iters = sum(b["horizon"] / b["problems"] * sum(b["iters"])
                         for b in batches if b["problems"])
    out["ilqr.rollouts_per_iter"] = (step_calls / per_step_iters
                                     if per_step_iters else 0.0)
    out["ilqr.calibrate_s"] = phase_s["calibrate"]

    for fn in PER_CALL:
        d = dur[sp["name"] == names.index(fn)] * 1e6 if fn in names else dur[:0]
        out[f"{fn}.calls"] = float(len(d))
        out[f"{fn}.us"] = float(np.median(d)) if len(d) else 0.0
        out[f"{fn}.us_tail"] = tail_value(d) if len(d) else 0.0
    out["buffer.fill"] = float(tracer.buffer_fill)
    loads = [d for d, nm in zip(dur, name_of) if nm == "config.load_config"]
    out["config.load_config.ms"] = 1e3 * float(sum(loads))
    return out
