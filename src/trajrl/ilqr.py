"""Fixed-iteration iLQR with eigenvalue-clip regularization.

Gauss-Newton backward recursion (no second-order dynamics terms), backtracking
line search with control clamping, batched execution, and extraction of the
cost-to-go values/gradients used as training targets.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .buffer import SampleBatch
from .envs import (CostField, ModelSpec, Region, TimeState, cost_for,
                   sample_initial_states, system_for)

LINE_SEARCH_ALPHAS = tuple(0.5**i for i in range(11))


class SolverError(RuntimeError):
    pass


class BatchSolveError(RuntimeError):
    """One or more problems of a batch failed; successes are kept in .results."""

    def __init__(self, errors: dict[int, Exception], results: list):
        self.errors = errors
        self.results = results
        detail = "; ".join(f"[{i}] {e}" for i, e in sorted(errors.items()))
        super().__init__(f"{len(errors)} of {len(results)} problems failed: {detail}")


@dataclass(frozen=True)
class RegularizerConfig:
    eps: float = 1e-6

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("eigenvalue floor must be positive")


def regularize_psd(q: np.ndarray, eps: float) -> np.ndarray:
    """Clip eigenvalues from below at eps and reconstruct symmetrically."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise SolverError("non-finite matrix passed to regularize_psd")
    sym = 0.5 * (q + q.T)
    s, w = np.linalg.eigh(sym)
    q_plus = (w * np.maximum(s, eps)) @ w.T
    return 0.5 * (q_plus + q_plus.T)


@dataclass
class Trajectory:
    """Dynamically feasible trajectory with per-step costs.

    X has T+1 rows, U has T rows; step_costs[k] is the running cost at step k
    for k < T and the terminal cost at k = T.  t0 is the time index of X[0].
    """

    X: np.ndarray
    U: np.ndarray
    step_costs: np.ndarray
    t0: int = 0

    @property
    def horizon(self) -> int:
        return self.U.shape[0]

    @property
    def cost(self) -> float:
        return float(self.step_costs.sum())


@dataclass
class SolveResult:
    traj: Trajectory
    cost: float
    V_bar: np.ndarray              # realized cost-to-go, length T+1
    V_bar_x: np.ndarray            # cost-to-go gradient per step, (T+1, n)
    iters_used: int
    converged: bool
    model: ModelSpec


class BackwardPassResult(NamedTuple):
    k_ff: np.ndarray               # (T, m)
    K_fb: np.ndarray               # (T, m, n)
    V_x: np.ndarray                # (T+1, n)
    V_xx: np.ndarray               # (T+1, n, n)
    expected_decrease: float


class _Stacks(NamedTuple):
    fx: np.ndarray
    fu: np.ndarray
    lx: np.ndarray
    lu: np.ndarray
    lxx: np.ndarray
    luu: np.ndarray
    lux: np.ndarray
    lt_x: np.ndarray
    lt_xx: np.ndarray


def _derivative_stacks(system, cost, traj: Trajectory) -> _Stacks:
    xs, us = traj.X[:-1], traj.U
    fx, fu = system.jacobians(xs, us)
    _, lx, lu, lxx, luu, lux = cost.stage_derivs(xs, us)
    _, lt_x, lt_xx = cost.terminal_derivs(traj.X[-1])
    stacks = _Stacks(fx, fu, lx, lu, lxx, luu, lux, lt_x, lt_xx)
    for name, arr in stacks._asdict().items():
        if not np.all(np.isfinite(arr)):
            bad = int(np.argwhere(~np.isfinite(arr).reshape(arr.shape[0], -1).all(axis=1))[0][0]) \
                if arr.ndim > 1 else 0
            raise SolverError(f"non-finite {name} at step {bad}")
    return stacks


def _backward_step(fx, fu, lx, lu, lxx, luu, lux, vx, vxx, eps, u, u_bound):
    """One Riccati-like step; returns gains, new (V_x, V_xx), model decrease.

    Control components saturated at their bound (with the model gradient
    pushing further out) are frozen: their gain rows are zero and they do not
    contribute to the value recursion, matching the sensitivity of the
    clamped rollout.
    """
    qx = lx + fx.T @ vx
    qu = lu + fu.T @ vx
    fx_t_vxx = fx.T @ vxx
    fu_t_vxx = fu.T @ vxx
    qxx = lxx + fx_t_vxx @ fx
    quu = luu + fu_t_vxx @ fu
    qux = lux + fu_t_vxx @ fx

    clamped = ((u >= u_bound - 1e-9) & (qu < 0.0)) | \
              ((u <= -u_bound + 1e-9) & (qu > 0.0))
    m = qu.shape[0]
    k_ff = np.zeros(m)
    k_fb = np.zeros((m, qx.shape[0]))
    if clamped.all():
        vx_new = qx
        vxx_new = regularize_psd(qxx, eps)
        return k_ff, k_fb, vx_new, vxx_new, 0.0
    if clamped.any():
        free = ~clamped
        quu_r_f = regularize_psd(quu[np.ix_(free, free)], eps)
        k_ff[free] = -np.linalg.solve(quu_r_f, qu[free])
        k_fb[free] = -np.linalg.solve(quu_r_f, qux[free])
        quu_r = np.zeros((m, m))
        quu_r[np.ix_(free, free)] = quu_r_f
        qu = np.where(free, qu, 0.0)
        qux = np.where(free[:, None], qux, 0.0)
    else:
        quu_r = regularize_psd(quu, eps)
        k_ff = -np.linalg.solve(quu_r, qu)
        k_fb = -np.linalg.solve(quu_r, qux)
    vx_new = qx + k_fb.T @ (quu_r @ k_ff) + k_fb.T @ qu + qux.T @ k_ff
    vxx_new = qxx + k_fb.T @ quu_r @ k_fb + k_fb.T @ qux + qux.T @ k_fb
    vxx_new = regularize_psd(vxx_new, eps)
    dec = -(k_ff @ qu + 0.5 * k_ff @ (quu_r @ k_ff))
    return k_ff, k_fb, vx_new, vxx_new, dec


def _backward(system, cost, traj: Trajectory, eps: float,
              u_bound=None) -> BackwardPassResult:
    t_hor = traj.horizon
    n, m = system.n, system.m
    if u_bound is None:
        u_bound = np.full(m, np.inf)
    st = _derivative_stacks(system, cost, traj)
    v_x = np.empty((t_hor + 1, n))
    v_xx = np.empty((t_hor + 1, n, n))
    k_ff = np.empty((t_hor, m))
    k_fb = np.empty((t_hor, m, n))
    v_x[t_hor] = st.lt_x
    v_xx[t_hor] = regularize_psd(st.lt_xx, eps)
    expected = 0.0
    for k in range(t_hor - 1, -1, -1):
        try:
            k_ff[k], k_fb[k], v_x[k], v_xx[k], dec = _backward_step(
                st.fx[k], st.fu[k], st.lx[k], st.lu[k], st.lxx[k],
                st.luu[k], st.lux[k], v_x[k + 1], v_xx[k + 1], eps,
                traj.U[k], u_bound)
        except SolverError as err:
            raise SolverError(f"backward pass failed at step {k}: {err}") from None
        expected += dec
    return BackwardPassResult(k_ff, k_fb, v_x, v_xx, expected)


def _cost_trajectory(cost, X, U) -> np.ndarray:
    sc = np.empty(U.shape[0] + 1)
    sc[:-1] = cost.stage(X[:-1], U)
    sc[-1] = cost.terminal(X[-1])
    return sc


def _roll(system, cost, u_bound, x0, t0, u_nom, x_ref=None, gains=None,
          alpha: float = 1.0) -> Trajectory:
    t_hor = u_nom.shape[0]
    X = np.empty((t_hor + 1, system.n))
    U = np.empty((t_hor, system.m))
    X[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t_hor):
            u = u_nom[k]
            if gains is not None:
                u = u + alpha * gains.k_ff[k] + gains.K_fb[k] @ (X[k] - x_ref[k])
            U[k] = np.clip(u, -u_bound, u_bound)
            X[k + 1] = system.step_x(X[k], U[k])
        if not np.all(np.isfinite(X)):
            sc = np.full(t_hor + 1, np.inf)
        else:
            sc = _cost_trajectory(cost, X, U)
    return Trajectory(X=X, U=U, step_costs=sc, t0=t0)


def solve(model: ModelSpec, field: CostField, x0: TimeState, U_init,
          max_iter: int, reg: RegularizerConfig = RegularizerConfig(),
          tol: float = 1e-6) -> SolveResult:
    """Run up to max_iter iLQR iterations from the given warm start.

    Each iteration runs the regularized backward pass and a backtracking line
    search accepting the first step with an actual cost decrease; the accepted
    cost sequence is non-increasing.  Cost-to-go values are the realized sums
    of step costs.  Their gradients are the V_x of a backward pass along the
    returned trajectory: the last iteration's own pass when its line search
    accepted no step, else one more pass after the accepted step.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    system = system_for(model)
    cost = cost_for(model, field)
    U_init = np.asarray(U_init, dtype=float).reshape(-1, model.m)
    t_hor = U_init.shape[0]
    if t_hor < 1 or x0.t + t_hor > model.t_max:
        raise ValueError(f"horizon {t_hor} starting at t={x0.t} exceeds "
                         f"t_max={model.t_max}")
    if x0.x.shape != (model.n,):
        raise ValueError(f"state dim {x0.x.shape} != ({model.n},)")

    u_nom = np.clip(U_init, -model.u_bound, model.u_bound)
    traj = _roll(system, cost, model.u_bound, x0.x, x0.t, u_nom)
    if not np.isfinite(traj.cost):
        raise SolverError("non-finite cost under the initial warm start")

    converged = False
    for iters_used in range(1, max_iter + 1):
        bp = _backward(system, cost, traj, reg.eps, model.u_bound)
        prev = traj.cost
        for alpha in LINE_SEARCH_ALPHAS:
            cand = _roll(system, cost, model.u_bound, traj.X[0], traj.t0,
                         traj.U, traj.X, bp, alpha)
            c = cand.cost
            if math.isfinite(c) and c < prev:
                break
        else:
            # no descent step: converged if the quadratic model agrees there
            # is (almost) nothing left to gain, otherwise stalled
            converged = bp.expected_decrease < tol * max(1.0, abs(prev))
            break
        traj, bp = cand, None       # bp no longer matches the trajectory
        if prev - traj.cost < tol * max(1.0, abs(prev)):
            converged = True
            break

    if bp is None:
        bp = _backward(system, cost, traj, reg.eps, model.u_bound)
    v_bar = np.cumsum(traj.step_costs[::-1])[::-1].copy()
    return SolveResult(traj=traj, cost=traj.cost, V_bar=v_bar, V_bar_x=bp.V_x,
                       iters_used=iters_used, converged=converged, model=model)


def _solve_one(args):
    model, field, x, t, u_init, max_iter, reg, tol = args
    return solve(model, field, TimeState(x, t), u_init, max_iter, reg, tol)


def solve_batch(model: ModelSpec, field: CostField, starts: Sequence[TimeState],
                warmstarts: Sequence[np.ndarray], max_iter: int,
                reg: RegularizerConfig = RegularizerConfig(), tol: float = 1e-6,
                workers: int = 1) -> list[SolveResult]:
    """Solve independent problems under one shared iteration cap.

    Results are bit-identical to sequential `solve` calls and returned in
    input order; per-problem failures are collected and raised together with
    their indices after the rest of the batch has finished.
    """
    if len(starts) != len(warmstarts):
        raise ValueError("starts and warmstarts must have equal length")
    tasks = [(model, field, s.x, s.t, np.asarray(w, dtype=float), max_iter, reg, tol)
             for s, w in zip(starts, warmstarts)]
    results: list = [None] * len(tasks)
    errors: dict[int, Exception] = {}
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (4 * workers))
            for i, res in enumerate(pool.map(_solve_one_safe, tasks, chunksize=chunk)):
                if isinstance(res, Exception):
                    errors[i] = res
                else:
                    results[i] = res
    else:
        for i, task in enumerate(tasks):
            try:
                results[i] = _solve_one(task)
            except Exception as err:  # noqa: BLE001 - collected per problem
                errors[i] = err
    if errors:
        raise BatchSolveError(errors, results)
    return results


def _solve_one_safe(args):
    try:
        return _solve_one(args)
    except Exception as err:  # noqa: BLE001
        return err


def kstep_targets(result: SolveResult, K: int) -> SampleBatch:
    """Replay rows of one solved trajectory, one per step k = 0..T.

    Row k holds the augmented state [x_k, t_k], the control u_k (zero at the
    horizon), the raw K'-step partial cost-to-go with K' = min(K, T-k), its
    state gradient, and the augmented state K' steps later.  A window that
    reaches the horizon takes the solver's own tail sum, terminal cost
    included; a shorter one sums its K step costs.  The gradient targets are
    the solver's cost-to-go gradients.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    traj = result.traj
    t_hor = traj.horizon
    steps = np.arange(t_hor + 1)
    xa = np.column_stack([traj.X, traj.t0 + steps])
    v_bar = result.V_bar.copy()
    if K < t_hor:
        # one sum per window, not cumsum differences, so that each target
        # rounds exactly as step_costs[k:k+K].sum() does
        windows = sliding_window_view(traj.step_costs[:t_hor], K)
        v_bar[:t_hor - K] = windows[:t_hor - K].sum(axis=1)
    u = np.vstack([traj.U, np.zeros((1, traj.U.shape[1]))])
    return SampleBatch(xa, u, v_bar, result.V_bar_x,
                       xa[np.minimum(steps + K, t_hor)], result.model.t_max)


def nearest_rank(counts, percentile: float) -> int:
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest value."""
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(counts)
    if not ordered:
        raise ValueError("empty count set")
    idx = max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)
    return ordered[idx]


def calibrate_max_iter(model: ModelSpec, field: CostField, probe_count: int,
                       cap: int, percentile: float,
                       warmstart_source: Optional[Callable] = None,
                       rng_seed=0, reg: RegularizerConfig = RegularizerConfig(),
                       tol: float = 1e-6, workers: int = 1,
                       return_counts: bool = False):
    """Pick the shared iteration cap as a percentile of probe convergence counts.

    Probes start uniformly in the workspace; warmstart_source maps a start to
    a control sequence (naive zeros when absent).  Non-converged probes count
    as the cap.
    """
    if probe_count < 10:
        raise ValueError("probe_count must be >= 10")
    starts = sample_initial_states(model, probe_count, rng_seed, Region.WORKSPACE)
    t_hor = model.t_max
    if warmstart_source is None:
        warms = [np.zeros((t_hor, model.m)) for _ in starts]
    else:
        warms = [warmstart_source(s) for s in starts]
    results = solve_batch(model, field, starts, warms, cap, reg, tol, workers)
    counts = [r.iters_used if r.converged else cap for r in results]
    value = nearest_rank(counts, percentile)
    return (value, counts) if return_counts else value
