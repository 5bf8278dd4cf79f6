"""Lockstep-batched iLQR with eigenvalue-clip regularization.

Gauss-Newton backward recursion (no second-order dynamics terms) and
backtracking line search with control clamping, run as two rollouts an
iteration: alpha = 1, then all smaller step sizes in one stack (the parallel
line search of GPU DDP, Plancher & Kuindersma 2018).  Each solve returns its
trajectory with the realized cost-to-go values and their gradients; how
problems are posed and what becomes of a solve is the trainer's business.

All problems of one horizon are solved in one lockstep: trajectories, gains
and value gradients carry a problem axis next to the time axis (time-major,
`(T, B, ...)`), and Python loops only over time steps and stack pieces.  Every
operation acts on each problem's own rows -- elementwise arithmetic, stacked
`matmul`/`eigh`/`solve`, and the batched methods of the systems and costs --
so a problem's result does not depend on which problems share its batch.
Matrix-vector products and dots are written as stacked matmuls
(`_mv`, `_dot`) because those round exactly like the per-matrix products,
where `einsum` and `(a * b).sum(-1)` do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .envs import CostField, ModelSpec, TimeState, cost_for, system_for

LINE_SEARCH_ALPHAS = tuple(0.5**i for i in range(11))

# (problem, time step) rows of one piece of the line search's candidate stack
# (rolled at ten step sizes) and of one stage-cost evaluation; and of one
# derivative evaluation in the backward pass (about 2.7 KB a row on the
# manipulator), which takes one step per call for more than DERIV_ROWS problems.
BLOCK_ROWS = 3200
DERIV_ROWS = 256


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
    """Clip eigenvalues from below at eps and reconstruct symmetrically.

    Accepts one matrix or a stack (..., k, k); stacked input gives the same
    bits as one call per matrix.
    """
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise SolverError("non-finite matrix passed to regularize_psd")
    sym = 0.5 * (q + np.swapaxes(q, -1, -2))
    s, w = np.linalg.eigh(sym)
    q_plus = (w * np.maximum(s, eps)[..., None, :]) @ np.swapaxes(w, -1, -2)
    return 0.5 * (q_plus + np.swapaxes(q_plus, -1, -2))


def _mv(a, v):
    """Stacked matrix-vector product, rounding like 2-D a @ 1-D v."""
    return (a @ v[..., None])[..., 0]


def _dot(a, b):
    """Row-wise dot product, rounding like 1-D a @ 1-D b."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


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


class BackwardPassResult(NamedTuple):
    """Gains of a batch of B problems, time-major."""

    k_ff: np.ndarray                # (T, B, m)
    K_fb: np.ndarray                # (T, B, m, n)
    V_x: np.ndarray                 # (T+1, B, n)
    expected_decrease: np.ndarray   # (B,)

    def take(self, rows) -> "BackwardPassResult":
        return BackwardPassResult(self.k_ff[:, rows], self.K_fb[:, rows],
                                  self.V_x[:, rows],
                                  self.expected_decrease[rows])


class _RowsFailed(Exception):
    """Rows of a backward pass that failed at one step: {row: error}."""

    def __init__(self, errors: dict[int, Exception]):
        super().__init__(errors)
        self.errors = errors


def _check_finite(step0: int, **arrays):
    """Fail the rows (axis 1) of time-major derivative blocks that hold a
    non-finite value, naming the first such array and step."""
    for name, arr in arrays.items():
        if np.isfinite(arr).all():
            continue
        fin = np.isfinite(arr).reshape(arr.shape[0], arr.shape[1], -1).all(axis=2)
        raise _RowsFailed({
            int(r): SolverError(f"non-finite {name} at step "
                                f"{step0 + int(np.argmin(fin[:, r]))}")
            for r in np.flatnonzero(~fin.all(axis=0))})


def _per_row(fn, k, *stacks, rows=None):
    """fn(*stacks) for stacks of matrices.  When the stacked call fails --
    regularize_psd rejects a non-finite matrix before the eigensolver, or
    LAPACK meets a singular one, which fails the whole stack -- each row is
    tried alone, and the rows that fail alone (row i, or rows[i] when rows
    is given) raise _RowsFailed."""
    try:
        return fn(*stacks)
    except (SolverError, np.linalg.LinAlgError) as stacked:
        errors = {}
        for i in range(len(stacks[0])):
            try:
                fn(*(s[i] for s in stacks))
            except (SolverError, np.linalg.LinAlgError) as err:
                errors[int(i if rows is None else rows[i])] = SolverError(
                    f"backward pass failed at step {k}: {err}")
        if not errors:
            raise stacked
        raise _RowsFailed(errors) from None


def _clip_and_solve(q, qu, qux, eps):
    """Stacked rows' eigen-clipped q_r and gains -q_r^-1 qu, -q_r^-1 qux."""
    q = regularize_psd(q, eps)
    return q, -np.linalg.solve(q, qu[..., None])[..., 0], -np.linalg.solve(q, qux)


def _backward_step(fx, fu, lx, lu, lxx, luu, lux, vx, vxx, eps, u, u_bound, k):
    """One Riccati-like step for a stack of rows; returns gains, new
    (V_x, V_xx), model decrease.

    Control components saturated at their bound (with the model gradient
    pushing further out) are frozen: their gain rows are zero and they do not
    contribute to the value recursion, matching the sensitivity of the
    clamped rollout (the free-subspace rule of box-DDP).  Rows are grouped by
    their number of free components, and each group's free sub-blocks of Quu
    are regularized and solved as one stack.
    """
    fx_t, fu_t = np.swapaxes(fx, -1, -2), np.swapaxes(fu, -1, -2)
    qx = lx + _mv(fx_t, vx)
    qu = lu + _mv(fu_t, vx)
    fx_t_vxx = fx_t @ vxx
    fu_t_vxx = fu_t @ vxx
    qxx = lxx + fx_t_vxx @ fx
    quu = luu + fu_t_vxx @ fu
    qux = lux + fu_t_vxx @ fx

    solve = partial(_clip_and_solve, eps=eps)
    free = ~(((u >= u_bound - 1e-9) & (qu < 0.0)) |
             ((u <= -u_bound + 1e-9) & (qu > 0.0)))
    # all-free steps (about half of a training run's) skip the groups' gathers
    # and scatters, about a tenth of such a step's time, with the same bits
    if free.all():
        quu_r, k_ff, k_fb = _per_row(solve, k, quu, qu, qux)
    else:
        k_ff = np.zeros(qu.shape)
        k_fb = np.zeros(qux.shape)
        quu_r = np.zeros(quu.shape)
        n_free = free.sum(axis=1)
        for nf in np.unique(n_free[n_free > 0]):
            rows = np.flatnonzero(n_free == nf)
            # each row's free components, ascending: its np.ix_(free, free)
            f = np.nonzero(free[rows])[1].reshape(len(rows), nf)
            sub = (rows[:, None], f)
            block = (rows[:, None, None], f[:, :, None], f[:, None, :])
            quu_r[block], k_ff[sub], k_fb[sub] = _per_row(
                solve, k, quu[block], qu[sub], qux[sub], rows=rows)
        qu = np.where(free, qu, 0.0)
        qux = np.where(free[..., None], qux, 0.0)
    k_fb_t, qux_t = np.swapaxes(k_fb, -1, -2), np.swapaxes(qux, -1, -2)
    vx_new = (qx + _mv(k_fb_t, _mv(quu_r, k_ff)) + _mv(k_fb_t, qu)
              + _mv(qux_t, k_ff))
    vxx_new = qxx + k_fb_t @ quu_r @ k_fb + k_fb_t @ qux + qux_t @ k_fb
    dec = -(_dot(k_ff, qu) + 0.5 * _dot(k_ff, _mv(quu_r, k_ff)))
    all_clamped = ~free.any(axis=1)
    if all_clamped.any():
        vx_new[all_clamped] = qx[all_clamped]
        vxx_new[all_clamped] = qxx[all_clamped]
        dec[all_clamped] = 0.0
    vxx_new = _per_row(partial(regularize_psd, eps=eps), k, vxx_new)
    return k_ff, k_fb, vx_new, vxx_new, dec


@np.errstate(over="ignore", invalid="ignore")
def _backward(system, cost, X, U, eps, u_bound) -> BackwardPassResult:
    """Backward pass along trajectories X (T+1, B, n), U (T, B, m).

    Derivatives are evaluated about DERIV_ROWS rows at a time while walking
    backward, and only the current V_xx is kept.  Raises _RowsFailed at the
    first step where any row meets a non-finite derivative or matrix, before
    that row's values reach a stacked LAPACK call, or a matrix that LAPACK
    rejects on its own; overflow on the way there is silenced, as in _roll.
    """
    t_hor, b, m = U.shape
    k_ff = np.empty((t_hor, b, m))
    K_fb = np.empty((t_hor, b, m, X.shape[2]))
    V_x = np.empty((t_hor + 1, b, X.shape[2]))
    _, lt_x, lt_xx = cost.terminal_derivs(X[t_hor])
    _check_finite(t_hor, lt_x=lt_x[None], lt_xx=lt_xx[None])
    V_x[t_hor] = lt_x
    vxx = _per_row(partial(regularize_psd, eps=eps), t_hor, lt_xx)
    expected = np.zeros(b)
    steps = max(1, DERIV_ROWS // b)
    for k1 in range(t_hor, 0, -steps):
        k0 = max(0, k1 - steps)
        xs, us = X[k0:k1], U[k0:k1]
        fx, fu = system.jacobians(xs, us)
        _, lx, lu, lxx, luu, lux = cost.stage_derivs(xs, us)
        _check_finite(k0, fx=fx, fu=fu, lx=lx, lu=lu, lxx=lxx, luu=luu,
                      lux=lux)
        for j in range(k1 - k0 - 1, -1, -1):
            k = k0 + j
            k_ff[k], K_fb[k], V_x[k], vxx, dec = _backward_step(
                fx[j], fu[j], lx[j], lu[j], lxx[j], luu[j], lux[j],
                V_x[k + 1], vxx, eps, us[j], u_bound, k)
            expected += dec
    return BackwardPassResult(k_ff, K_fb, V_x, expected)


def _cost_trajectory(cost, X, U, rows=slice(None)) -> np.ndarray:
    """Step costs (T+1, ...) of X[:, rows] (T+1, ..., n) under U[:, rows].

    The rows are gathered and their stage costs evaluated about BLOCK_ROWS
    (step, row) pairs at a time, which bounds the copies and the cost's
    temporaries on a stack of line-search candidates or a large lockstep;
    each pair's cost is its own, so the split does not change a bit.
    """
    sc = np.empty((len(X),) + X[0, rows, ..., 0].shape)
    steps = max(1, BLOCK_ROWS // max(1, sc[0].size))
    for k0 in range(0, len(U), steps):
        k1 = min(k0 + steps, len(U))
        sc[k0:k1] = cost.stage(X[k0:k1, rows], U[k0:k1, rows])
    sc[-1] = cost.terminal(X[-1, rows])
    return sc


def _roll(system, cost, u_bound, x0, t_hor: int, control):
    """Roll a stack of rows forward from x0 (b, n) for t_hor steps.

    The one stepping loop, for the solver and the policy alike: the controls
    u_k = control(k, x_k) of the b rows are clamped to the bounds, and the
    step costs evaluated on the rolled rows.  Returns X (T+1, b, n),
    U (T, b, m) and the step costs (b, T+1), all inf on a row whose states or
    controls left the finite numbers; such a row is not stepped again, so the
    dynamics only see finite input.
    """
    X = np.empty((t_hor + 1,) + x0.shape)
    U = np.empty((t_hor, len(x0), system.m))
    X[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t_hor):
            U[k] = np.clip(control(k, X[k]), -u_bound, u_bound)
            if np.isfinite(X[k]).all() and np.isfinite(U[k]).all():
                X[k + 1] = system.step_x(X[k], U[k])
            else:
                ok = np.isfinite(X[k]).all(axis=1) & np.isfinite(U[k]).all(axis=1)
                X[k + 1] = np.nan
                X[k + 1, ok] = system.step_x(X[k, ok], U[k, ok])
        sc = np.full((len(x0), t_hor + 1), np.inf)
        fin = np.isfinite(X).all(axis=(0, 2))
        if fin.any():
            sc[fin] = _cost_trajectory(cost, X, U, fin).T
    return X, U, sc


class _Lockstep:
    """Per-problem state of a lockstep; X and U time-major."""

    def __init__(self, ids, t0, X, U, sc):
        self.ids, self.t0, self.X, self.U, self.sc = ids, t0, X, U, sc
        self.cost = sc.sum(axis=1)
        self.converged = np.zeros(len(ids), dtype=bool)
        self.done = np.zeros(len(ids), dtype=bool)   # awaits its final V_x

    def take(self, rows):
        self.X, self.U = self.X[:, rows], self.U[:, rows]
        for name in ("ids", "t0", "sc", "cost", "converged", "done"):
            setattr(self, name, getattr(self, name)[rows])

    def finish(self, rows, V_x, iters: int, results):
        """Store the results of the rows (a mask) and drop them.  No problem
        joins a running lockstep, so every row has run iters iterations."""
        for r in np.flatnonzero(rows):
            sc = self.sc[r].copy()
            traj = Trajectory(X=self.X[:, r].copy(), U=self.U[:, r].copy(),
                              step_costs=sc, t0=int(self.t0[r]))
            results[self.ids[r]] = SolveResult(traj=traj, cost=float(self.cost[r]),
                                               V_bar=np.cumsum(sc[::-1])[::-1].copy(),
                                               V_bar_x=V_x[:, r].copy(),
                                               iters_used=iters,
                                               converged=bool(self.converged[r]))
        if rows.any():
            self.take(~rows)


def _line_search(system, cost, u_bound, st, gains, prev) -> np.ndarray:
    """Move each row of st to its first step size in LINE_SEARCH_ALPHAS whose
    rollout has a finite cost below prev; return the rows that found none.

    Two rollouts: alpha = 1 for every row, then the other step sizes of the
    rows still searching, at most BLOCK_ROWS // T to an alpha-major stack, from
    which each row takes its first accepting alpha -- the step a
    one-alpha-at-a-time search would accept, with the same bits.
    """
    def roll(rows, alpha):
        return _roll(system, cost, u_bound, st.X[0, rows], len(st.U),
                     lambda k, x: (st.U[k, rows] + alpha * gains.k_ff[k, rows]
                                   + _mv(gains.K_fb[k, rows], x - st.X[k, rows])))

    def accept(acc, X, U, sc, c):
        st.X[:, acc], st.U[:, acc], st.sc[acc], st.cost[acc] = X, U, sc, c

    X, U, sc = roll(slice(None), LINE_SEARCH_ALPHAS[0])
    c = sc.sum(axis=1)
    ok = np.isfinite(c) & (c < prev)
    accept(ok, X[:, ok], U[:, ok], sc[ok], c[ok])
    del X, U, sc
    rows = np.flatnonzero(~ok)
    alphas = LINE_SEARCH_ALPHAS[1:]
    size = max(1, BLOCK_ROWS // len(st.U))
    for lo in range(0, rows.size, size):
        part = rows[lo:lo + size]
        stack = np.tile(part, len(alphas))
        X, U, sc = roll(stack, np.repeat(alphas, part.size)[:, None])
        c = sc.sum(axis=1)
        ok_at = (np.isfinite(c) & (c < prev[stack])).reshape(len(alphas), -1)
        found = ok_at.any(axis=0)
        pick = (ok_at.argmax(axis=0) * part.size + np.arange(part.size))[found]
        accept(part[found], X[:, pick], U[:, pick], sc[pick], c[pick])
        ok[part[found]] = True
        del X, U, sc
    return ~ok


def _solve_lockstep(system, cost, u_bound, ids, starts, u_nom, max_iter, eps,
                    tol, results, errors):
    """Solve problems of one horizon in lockstep; fill results and errors.

    ids index results/errors; starts are their TimeStates; u_nom (T, B, m)
    are the clamped warm starts.
    """
    X, U, sc = _roll(system, cost, u_bound, np.stack([s.x for s in starts]),
                     len(u_nom), lambda k, x: u_nom[k])
    st = _Lockstep(np.asarray(ids), np.array([s.t for s in starts]), X, U, sc)
    del X, U, sc
    for i in st.ids[~np.isfinite(st.cost)]:
        errors[int(i)] = SolverError("non-finite cost under the initial warm start")
    st.take(np.isfinite(st.cost))

    it = 0
    while st.ids.size:
        try:
            gains = _backward(system, cost, st.X, st.U, eps, u_bound)
        except _RowsFailed as failed:
            # drop the failed problems and repeat the pass without them
            for r, err in failed.errors.items():
                errors[int(st.ids[r])] = err
            keep = np.ones(st.ids.size, dtype=bool)
            keep[list(failed.errors)] = False
            st.take(keep)
            continue
        if st.done.any():
            keep = ~st.done
            st.finish(st.done, gains.V_x, it, results)
            gains = gains.take(keep)
            if not st.ids.size:
                break

        it += 1
        prev = st.cost.copy()
        searching = _line_search(system, cost, u_bound, st, gains, prev)
        # no descent step: converged if the quadratic model agrees there is
        # (almost) nothing left to gain, otherwise stalled
        scale = tol * np.maximum(1.0, np.abs(prev))
        st.converged = np.where(searching, gains.expected_decrease < scale,
                                prev - st.cost < scale)
        # an accepted step needs one more backward pass for its V_x, which
        # runs with the next iteration's
        st.done = st.converged | (it == max_iter)
        st.finish(searching, gains.V_x, it, results)
        del gains


def _initial_controls(model: ModelSpec, x0: TimeState, U_init) -> np.ndarray:
    U_init = np.asarray(U_init, dtype=float).reshape(-1, model.m)
    t_hor = U_init.shape[0]
    if t_hor < 1 or x0.t + t_hor > model.t_max:
        raise ValueError(f"horizon {t_hor} starting at t={x0.t} exceeds "
                         f"t_max={model.t_max}")
    if x0.x.shape != (model.n,):
        raise ValueError(f"state dim {x0.x.shape} != ({model.n},)")
    return np.clip(U_init, -model.u_bound, model.u_bound)


def solve_batch(model: ModelSpec, field: CostField, starts: Sequence[TimeState],
                warmstarts: Sequence[np.ndarray], max_iter: int,
                reg: RegularizerConfig = RegularizerConfig(),
                tol: float = 1e-6) -> list[SolveResult]:
    """Solve independent problems under one shared iteration cap.

    Each problem runs up to max_iter iLQR iterations from its warm start.  An
    iteration runs the regularized backward pass and a backtracking line
    search over LINE_SEARCH_ALPHAS that accepts the first step with an actual
    cost decrease, so each problem's accepted cost sequence is non-increasing.
    A problem finishes when its improvement falls below tol (converged), when
    no step decreases its cost (converged if the quadratic model predicts
    almost no decrease, else stalled), or at the cap.  Cost-to-go values are
    the realized sums of step costs; their gradients are the V_x of a
    backward pass along the returned trajectory.

    Lockstep: all problems of equal horizon T are solved together, in one
    process.  Each iteration runs one backward pass over all of them that are
    unfinished and two line-search rollouts: every problem at alpha = 1, then
    those still searching at the ten smaller step sizes, BLOCK_ROWS // T
    problems to a stack, each taking its first that decreases the cost -- the
    step a one-alpha-at-a-time search accepts.  A problem that converges,
    stalls or hits the cap leaves the lockstep.  Every
    operation acts on each problem's own rows, so results are bit-identical
    to solving each problem alone (a batch of one) and do not depend on the
    batch's order or size.

    Failures are isolated: a problem whose start or warm start is invalid,
    whose initial rollout is not finite, or whose backward pass meets a
    non-finite derivative or matrix fails alone and leaves the lockstep, before
    its values reach a stacked LAPACK call; so does one whose finite matrix
    LAPACK rejects (a singular Quu), found by solving that stack row by row.
    Failures are raised together with their indices in a BatchSolveError once
    the rest of the batch has finished; results are returned in input order.

    Memory: the lockstep holds each problem's trajectories and gains, about
    30 KB per manipulator problem, mostly K_fb (T x m x n values).  A stack of
    line-search candidates holds at most 10 x BLOCK_ROWS (problem, step) rows
    (about 2.5 MB on the manipulator); derivatives are evaluated about
    DERIV_ROWS rows at a time.  Both trade Python overhead per call against
    peak memory; a failed or finished problem's rows are dropped at once.
    """
    if len(starts) != len(warmstarts):
        raise ValueError("starts and warmstarts must have equal length")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    system = system_for(model)
    cost = cost_for(model, field)
    results: list = [None] * len(starts)
    errors: dict[int, Exception] = {}
    by_horizon: dict[int, list] = {}
    for i, (x0, warm) in enumerate(zip(starts, warmstarts)):
        try:
            u_nom = _initial_controls(model, x0, warm)
        except ValueError as err:
            errors[i] = err
        else:
            by_horizon.setdefault(len(u_nom), []).append((i, u_nom))
    for members in by_horizon.values():
        ids, u_nom = zip(*members)
        _solve_lockstep(system, cost, model.u_bound, ids,
                        [starts[i] for i in ids], np.stack(u_nom, axis=1),
                        max_iter, reg.eps, tol, results, errors)
    if errors:
        raise BatchSolveError(dict(sorted(errors.items())), results)
    return results


def solve(model: ModelSpec, field: CostField, x0: TimeState, U_init,
          max_iter: int, reg: RegularizerConfig = RegularizerConfig(),
          tol: float = 1e-6) -> SolveResult:
    """Run up to max_iter iLQR iterations from the given warm start: a batch
    of one (see solve_batch).  A failure raises its own error."""
    try:
        return solve_batch(model, field, [x0], [U_init], max_iter, reg, tol)[0]
    except BatchSolveError as err:
        raise err.errors[0] from None
