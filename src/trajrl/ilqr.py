"""Lockstep-batched iLQR with eigenvalue-clip regularization.

Gauss-Newton backward recursion (no second-order dynamics terms) and
backtracking line search with control clamping, run as two rollouts an
iteration: alpha = 1, then all smaller step sizes in one stack (the parallel
line search of GPU DDP, Plancher & Kuindersma 2018).  Each solve returns its
trajectory and the gradients of its cost-to-go; how problems are posed and
what becomes of a solve is the trainer's business.

All problems of a call are solved in one lockstep, aligned at their end:
trajectories, gains and value gradients carry a problem axis next to the time
axis (time-major, `(T, B, ...)`), and Python loops only over time steps and
stack pieces.  Every operation acts on each problem's own rows -- elementwise
arithmetic, stacked `matmul`/`eigh`/`solve`, and the batched methods of the
systems and costs -- so a problem's result does not depend on which problems
share its batch.  So a call without calibration probes of at least SPLIT_ROWS
rows may solve its second half in a forked child process, on a second CPU,
with the same bits.  Matrix-vector products and dots are written as stacked
matmuls (`_mv`, `_dot`, or with the vectors kept as `(..., 1)` columns, as the
backward pass does) because those round exactly like the per-matrix products,
where `einsum` and `(a * b).sum(-1)` do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .envs import CostField, ModelSpec, TimeState, cost_for, system_for
from .procs import Child, spare_cpu

LINE_SEARCH_ALPHAS = tuple(0.5**i for i in range(11))

# (problem, time step) rows of one piece of the line search's candidate stack
# (rolled at ten step sizes) and of one stage-cost evaluation; and of one
# derivative evaluation in the backward pass (about 2.7 KB a row on the
# manipulator), which takes one step per call for more than DERIV_ROWS problems.
BLOCK_ROWS = 3200
DERIV_ROWS = 256
# Rows (the sum of the horizons of its valid problems) from which a call
# without probes solves its second half in a forked child, on a second CPU.
# Measured break-even on a 2-CPU machine, split against one process: toy1d
# 1.04x at 480 rows and near even (0.93-1.09x) from 960 on; pointmass
# 1.07-1.28x at 180, 0.80-0.98x from 360; manipulator 0.77-0.88x from 200.
SPLIT_ROWS = 1200


class SolverError(RuntimeError):
    pass


class BatchSolveError(RuntimeError):
    """One or more problems of a batch failed; successes are kept in .results."""

    def __init__(self, errors: dict[int, Exception], results: list):
        self.errors = errors
        self.results = results
        detail = "; ".join(f"[{i}] {e}" for i, e in sorted(errors.items()))
        super().__init__(f"{len(errors)} of {len(results)} problems failed: {detail}")

    def __reduce__(self):
        # as built, so that it crosses from a child process (see procs.Child)
        return type(self), (self.errors, self.results)


@dataclass(frozen=True)
class RegularizerConfig:
    eps: float = 1e-6

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("eigenvalue floor must be positive")


def _finite(a) -> bool:
    """np.isfinite(a).all(), without the reduction's call overhead."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _eigh(a):
    """np.linalg.eigh(a) of a stack, through the LAPACK gufunc it wraps (same
    bits, without the wrapper's checks); a failed matrix gives non-finite
    eigenvalues, which raise SolverError in numpy's words.  The gufunc flags
    such a failure as an invalid value, which _backward's errstate silences."""
    s, w = _umath_linalg.eigh_lo(a, signature="d->dd")
    if not _finite(s):
        raise SolverError("Eigenvalues did not converge")
    return s, w


def _solve(a, b):
    """np.linalg.solve(a, b) of stacks, b of shape (..., k, r), the same way:
    a singular matrix gives a non-finite solution, which raises
    SolverError("Singular matrix")."""
    x = _umath_linalg.solve(a, b, signature="dd->d")
    if not _finite(x):
        raise SolverError("Singular matrix")
    return x


def regularize_psd(q: np.ndarray, eps: float) -> np.ndarray:
    """Clip eigenvalues from below at eps and reconstruct symmetrically.

    Accepts one matrix or a stack (..., k, k); stacked input gives the same
    bits as one call per matrix.
    """
    q = np.asarray(q, dtype=float)
    if not _finite(q):
        raise SolverError("non-finite matrix passed to regularize_psd")
    sym = q + q.swapaxes(-1, -2)
    sym *= 0.5
    s, w = _eigh(sym)
    np.maximum(s, eps, out=s)
    q_plus = (w * s[..., None, :]) @ w.swapaxes(-1, -2)
    out = q_plus + q_plus.swapaxes(-1, -2)
    out *= 0.5
    return out


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

    @classmethod
    def row(cls, X, U, sc, r: int, first: int, t0: int) -> Trajectory:
        """A copy of row r of a lockstep's X, U and sc from step first (time t0) on."""
        return cls(X=X[first:, r].copy(), U=U[first:, r].copy(),
                   step_costs=sc[r, first:].copy(), t0=int(t0))

    @property
    def horizon(self) -> int:
        return self.U.shape[0]

    @property
    def cost(self) -> float:
        return float(self.step_costs.sum())


@dataclass
class SolveResult:
    traj: Trajectory
    V_bar_x: Optional[np.ndarray]  # cost-to-go gradient per step, (T+1, n);
                                   # None for a calibration probe
    iters_used: int
    converged: bool

    @property
    def cost(self) -> float:
        return self.traj.cost


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


class Probes(NamedTuple):
    """Calibration probes of a solve_batch call: its first n problems, whose
    rank-th smallest iteration count caps the others.  With batch_only, the
    cap is read by those others alone, so the probes stop with them."""

    n: int
    rank: int
    batch_only: bool = False


class _RowsFailed(Exception):
    """Rows of a backward pass that failed at one step: {row: error}."""

    def __init__(self, errors: dict[int, Exception]):
        super().__init__(errors)
        self.errors = errors


def _check_finite(step0: int, first, **arrays):
    """Fail the rows (axis 1) of time-major derivative blocks from step step0
    that hold a non-finite value, naming the first such array and own step."""
    for name, arr in arrays.items():
        if np.isfinite(arr).all():
            continue
        fin = np.isfinite(arr).reshape(arr.shape[0], arr.shape[1], -1).all(axis=2)
        raise _RowsFailed({
            int(r): SolverError(f"non-finite {name} at step "
                                f"{step0 + int(np.argmin(fin[:, r])) - first[r]}")
            for r in np.flatnonzero(~fin.all(axis=0))})


def _per_row(fn, k, first, eps, *stacks, rows=None):
    """fn(*stacks, eps) for stacks of matrices of step k.  When the stacked call
    fails -- regularize_psd rejects a non-finite matrix before the eigensolver,
    or LAPACK meets a singular one, which fails the whole stack -- each row is
    tried alone, and the rows r that fail alone (row i, or rows[i] when rows
    is given) raise _RowsFailed, at their own step k - first[r]."""
    try:
        return fn(*stacks, eps)
    except SolverError as stacked:
        errors = {}
        for i in range(len(stacks[0])):
            try:
                fn(*(s[i] for s in stacks), eps)
            except SolverError as err:
                r = int(i if rows is None else rows[i])
                errors[r] = SolverError(f"backward pass failed at step "
                                        f"{k - first[r]}: {err}")
        if not errors:
            raise stacked
        raise _RowsFailed(errors) from None


def _clip_and_solve(q, qu, qux, eps):
    """Stacked rows' eigen-clipped q_r and gains -q_r^-1 qu, -q_r^-1 qux (qu
    a column)."""
    q = regularize_psd(q, eps)
    return q, -_solve(q, qu), -_solve(q, qux)


def _backward_step(fx, fu, fx_t, fu_t, lx, lu, lxx, luu, vx, vxx, eps, bound, k,
                   first):
    """One Riccati-like step k for a stack of rows that start at steps first,
    with lx, lu and vx as columns (..., 1), fx_t and fu_t the transposed
    Jacobians, and bound None when no control of the step is at a bound, else
    the masks of the controls at their upper and at their lower bound.

    Returns the gains k_ff (a column) and K_fb, the new (V_x, V_xx), and the
    terms of the model decrease: Q_u, Quu_r k_ff, and the rows whose controls
    are all frozen (None when there are none).  Control components saturated
    at their bound (with the model gradient pushing further out) are frozen:
    their gain rows are zero, matching the sensitivity of the clamped rollout
    (the free-subspace rule of box-DDP).  Those zero rows of k_ff and K_fb
    alone keep a frozen component out of the value recursion: it adds only
    exact zeros to V_x, V_xx and the model decrease.  Rows are grouped by
    their number of free components, and each group's free sub-blocks of Quu
    are regularized and solved as one stack.
    """
    qx = lx + fx_t @ vx
    qu = lu + fu_t @ vx
    fx_t_vxx = fx_t @ vxx
    fu_t_vxx = fu_t @ vxx
    qxx = lxx + fx_t_vxx @ fx
    quu = luu + fu_t_vxx @ fu
    qux = fu_t_vxx @ fx

    all_clamped = None
    if bound is not None:
        free = ~((bound[0] & (qu[..., 0] < 0.0)) | (bound[1] & (qu[..., 0] > 0.0)))
        if np.count_nonzero(free) == free.size:
            bound = None
    if bound is None:
        quu_r, k_ff, k_fb = _per_row(_clip_and_solve, k, first, eps, quu, qu, qux)
    else:
        k_ff = np.zeros(qu.shape)
        k_fb = np.zeros(qux.shape)
        quu_r = np.zeros(quu.shape)
        n_free = free.sum(axis=1)
        m = free.shape[1]
        for nf in sorted(set(n_free.tolist()) - {0}):
            rows = (n_free == nf).nonzero()[0]
            if nf == m:
                # every control free: the whole blocks, gathered by row alone
                sub = block = rows
            else:
                # each row's free components, ascending: its np.ix_(free, free)
                f = np.nonzero(free[rows])[1].reshape(len(rows), nf)
                sub = (rows[:, None], f)
                block = (rows[:, None, None], f[:, :, None], f[:, None, :])
            quu_r[block], k_ff[sub], k_fb[sub] = _per_row(
                _clip_and_solve, k, first, eps, quu[block], qu[sub], qux[sub],
                rows=rows)
        all_clamped = n_free == 0
    k_fb_t, qux_t = k_fb.swapaxes(-1, -2), qux.swapaxes(-1, -2)
    quu_k = quu_r @ k_ff
    vx_new = qx + k_fb_t @ quu_k
    vx_new += k_fb_t @ qu
    vx_new += qux_t @ k_ff
    vxx_new = qxx + k_fb_t @ quu_r @ k_fb
    vxx_new += k_fb_t @ qux
    vxx_new += qux_t @ k_fb
    if all_clamped is not None and np.count_nonzero(all_clamped):
        vx_new[all_clamped] = qx[all_clamped]
        vxx_new[all_clamped] = qxx[all_clamped]
    else:
        all_clamped = None
    vxx_new = _per_row(regularize_psd, k, first, eps, vxx_new)
    return k_ff, k_fb, vx_new, vxx_new, qu, quu_k, all_clamped


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _backward(system, cost, X, U, first, eps, u_bound) -> BackwardPassResult:
    """Backward pass along X (T+1, B, n), U (T, B, m), rows from steps first.

    Derivatives are evaluated about DERIV_ROWS rows at a time while walking
    backward, and only the current V_xx is kept.  A row's steps before its
    first, walked after its own, are inert: fx = I and the rest 0, written into
    the fresh arrays of `jacobians` and `stage_derivs`; Q_uu = 0 clips to eps*I,
    and their model decrease is zeroed.  Raises _RowsFailed at the first step
    where any row meets a non-finite derivative or matrix, before that row's
    values reach a stacked LAPACK call, or a matrix that LAPACK rejects on its
    own; overflow on the way there is silenced, as in _roll.  The model
    decrease is summed after the walk, step T-1 first, as the walk would.
    """
    t_hor, b, m = U.shape
    n = X.shape[2]
    k_ff = np.empty((t_hor, b, m, 1))
    K_fb = np.empty((t_hor, b, m, n))
    V_x = np.empty((t_hor + 1, b, n, 1))
    qu = np.empty((t_hor, b, m, 1))
    quu_k = np.empty((t_hor, b, m, 1))
    no_dec = np.zeros((t_hor, b), dtype=bool)    # all clamped, or inert
    lt_x, lt_xx = cost.terminal_derivs(X[t_hor])
    _check_finite(t_hor, first, lt_x=lt_x[None], lt_xx=lt_xx[None])
    V_x[t_hor, ..., 0] = lt_x
    vxx = _per_row(regularize_psd, t_hor, first, eps, lt_xx)
    steps = max(1, DERIV_ROWS // b)
    held = first.max()
    for k1 in range(t_hor, 0, -steps):
        k0 = max(0, k1 - steps)
        xs, us = X[k0:k1], U[k0:k1]
        fx, fu = system.jacobians(xs, us)
        lx, lu, lxx, luu = cost.stage_derivs(xs, us)
        if k0 < held:
            inert = np.arange(k0, k1)[:, None] < first
            no_dec[k0:k1] = inert
            fx[inert] = np.eye(n)
            for a in (fu, lx, lu, lxx, luu):
                a[inert] = 0.0
        _check_finite(k0, first, fx=fx, fu=fu, lx=lx, lu=lu, lxx=lxx, luu=luu)
        fx_t, fu_t = fx.swapaxes(-1, -2), fu.swapaxes(-1, -2)
        lx, lu = lx[..., None], lu[..., None]
        at_hi, at_lo = us >= u_bound - 1e-9, us <= -u_bound + 1e-9
        at_bound = (at_hi | at_lo).any(axis=(1, 2))
        for j in range(k1 - k0 - 1, -1, -1):
            k = k0 + j
            bound = (at_hi[j], at_lo[j]) if at_bound[j] else None
            k_ff[k], K_fb[k], V_x[k], vxx, qu[k], quu_k[k], clamped = \
                _backward_step(fx[j], fu[j], fx_t[j], fu_t[j], lx[j], lu[j],
                               lxx[j], luu[j], V_x[k + 1], vxx, eps, bound, k,
                               first)
            if clamped is not None:
                no_dec[k] |= clamped
    k_ff, V_x = k_ff[..., 0], V_x[..., 0]
    dec = -(_dot(k_ff, qu[..., 0]) + 0.5 * _dot(k_ff, quu_k[..., 0]))
    dec[no_dec] = 0.0
    # the sum from +0.0 over k = T-1, ..., 0, in that order
    dec = np.concatenate([np.zeros((1, b)), dec[::-1]])
    return BackwardPassResult(k_ff, K_fb, V_x, np.add.accumulate(dec)[-1])


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


def _roll(system, cost, u_bound, x0, t_hor: int, control, first):
    """Roll rows x0 (b, n) forward t_hor steps, row i held until step first[i].

    The one stepping loop, for the solver and the policy alike: the controls
    u_k = control(k, x_k) of the b rows are clamped to the bounds, and the
    step costs evaluated on the rolled rows.  Returns X (T+1, b, n),
    U (T, b, m) and the step costs (b, T+1), all inf on a row whose states or
    controls left the finite numbers; such a row is not stepped again, so the
    dynamics only see finite input.  A held row's controls go unread.
    """
    X = np.empty((t_hor + 1,) + x0.shape)
    U = np.empty((t_hor, len(x0), system.m))
    X[0] = x0
    held = first.max()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t_hor):
            U[k] = np.clip(control(k, X[k]), -u_bound, u_bound)
            if np.isfinite(X[k]).all() and np.isfinite(U[k]).all():
                X[k + 1] = system.step_x(X[k], U[k])
            else:
                ok = np.isfinite(X[k]).all(axis=1) & np.isfinite(U[k]).all(axis=1)
                X[k + 1] = np.nan
                X[k + 1, ok] = system.step_x(X[k, ok], U[k, ok])
            if k < held:
                rows = k < first
                X[k + 1, rows] = X[k, rows]
        sc = np.full((len(x0), t_hor + 1), np.inf)
        fin = np.isfinite(X).all(axis=(0, 2))
        if fin.any():
            sc[fin] = _cost_trajectory(cost, X, U, fin).T
    return X, U, sc


def _costs(sc, first) -> np.ndarray:
    """Row i's sum of sc[i, first[i]:], rounding as that row summed alone."""
    if not first.any():
        return sc.sum(axis=1)
    c = np.empty(len(sc))
    for f in np.unique(first):
        rows = first == f
        c[rows] = sc[rows, f:].sum(axis=1)
    return c


class _Lockstep:
    """Per-problem state of a lockstep; X and U time-major."""

    def __init__(self, ids, t0, first, X, U, sc, probes: int = 0):
        self.ids, self.t0, self.first = ids, t0, first
        self.X, self.U, self.sc = X, U, sc
        self.cost = _costs(sc, first)
        self.converged = np.zeros(len(ids), dtype=bool)
        self.done = np.zeros(len(ids), dtype=bool)   # awaits its final V_x
        self.probe = ids < probes

    def take(self, rows):
        self.X, self.U = self.X[:, rows], self.U[:, rows]
        for name in ("ids", "t0", "first", "sc", "cost", "converged", "done",
                     "probe"):
            setattr(self, name, getattr(self, name)[rows])

    def finish(self, rows, V_x, iters: int, results):
        """Store the results of the rows (a mask) from their first steps on
        and drop them.  No problem joins a running lockstep, so every row has
        run iters iterations.  A probe's result has no V_bar_x (unread)."""
        for r in np.flatnonzero(rows):
            f = self.first[r]
            results[self.ids[r]] = SolveResult(
                traj=Trajectory.row(self.X, self.U, self.sc, r, f, self.t0[r]),
                V_bar_x=None if self.probe[r] else V_x[f:, r].copy(),
                iters_used=iters, converged=bool(self.converged[r]))
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
                                   + _mv(gains.K_fb[k, rows], x - st.X[k, rows])),
                     st.first[rows])

    def accept(acc, X, U, sc, c):
        st.X[:, acc], st.U[:, acc], st.sc[acc], st.cost[acc] = X, U, sc, c

    X, U, sc = roll(slice(None), LINE_SEARCH_ALPHAS[0])
    c = _costs(sc, st.first)
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
        c = _costs(sc, st.first[stack])
        ok_at = (np.isfinite(c) & (c < prev[stack])).reshape(len(alphas), -1)
        found = ok_at.any(axis=0)
        pick = (ok_at.argmax(axis=0) * part.size + np.arange(part.size))[found]
        accept(part[found], X[:, pick], U[:, pick], sc[pick], c[pick])
        ok[part[found]] = True
        del X, U, sc
    return ~ok


def _solve_lockstep(system, cost, u_bound, starts, max_iter, eps, tol, probes,
                    members, results, errors):
    """Solve the problems members, pairs (index, warm start), in one
    lockstep as long as their longest horizon; fill results and errors.

    The indices index starts, results and errors; those below probes.n are
    calibration probes, which set the cap of the others (see solve_batch).
    """
    if not members:
        return
    ids = np.array([i for i, _ in members])
    t_hor = max(len(u) for _, u in members)
    first = np.array([t_hor - len(u) for _, u in members])
    u_nom = np.stack([np.pad(u, ((f, 0), (0, 0)))
                      for f, (_, u) in zip(first, members)], axis=1)
    X, U, sc = _roll(system, cost, u_bound, np.stack([starts[i].x for i in ids]),
                     t_hor, lambda k, x: u_nom[k], first)
    st = _Lockstep(ids, np.array([starts[i].t for i in ids]), first, X, U, sc,
                   probes.n)
    del X, U, sc
    for i in st.ids[~np.isfinite(st.cost)]:
        errors[int(i)] = SolverError("non-finite cost under the initial warm start")
    st.take(np.isfinite(st.cost))

    cap, rank = max_iter, probes.rank
    n_conv = 0                  # probes converged so far
    it = 0
    while st.ids.size:
        if probes.n and all(i in errors for i in range(probes.n)):
            # no probe is left to set the cap: the problems it caps fail now
            for i in st.ids:
                errors[int(i)] = SolverError("every calibration probe failed")
            break
        if probes.batch_only and not (~st.probe & ~st.done).any():
            # no problem the probes cap is still running
            st.finish(st.probe, None, it, results)
            if not st.ids.size:
                break
        try:
            gains = _backward(system, cost, st.X, st.U, st.first, eps, u_bound)
        except _RowsFailed as failed:
            # drop the failed problems and repeat the pass without them
            for r, err in failed.errors.items():
                errors[int(st.ids[r])] = err
            st.take(~np.isin(np.arange(st.ids.size), list(failed.errors)))
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
        st.done = st.converged | (it == cap)
        leaving = searching
        if st.probe.any():
            # the cap is the count of the rank-th probe to converge, so it is
            # this iteration once rank probes have converged, and max_iter
            # once too few are left to get there; a probe leaves as soon as it
            # ends, and all of them once the cap is known
            ended = st.probe & (searching | st.done)
            n_conv += np.count_nonzero(st.probe & st.converged)
            if n_conv >= rank or n_conv + np.count_nonzero(st.probe & ~ended) < rank:
                cap = it if n_conv >= rank else max_iter
                st.done |= it == cap
                ended = st.probe
            leaving = searching | ended
        st.finish(leaving, gains.V_x, it, results)
        del gains


def _initial_controls(model: ModelSpec, x0: TimeState, U_init) -> np.ndarray:
    U_init = np.asarray(U_init, dtype=float).reshape(-1, model.m)
    t_hor = U_init.shape[0]
    if t_hor < 1 or x0.t + t_hor > model.t_max:
        raise ValueError(f"horizon {t_hor} starting at t={x0.t} exceeds "
                         f"t_max={model.t_max}")
    if x0.x.shape != (model.n,):
        raise ValueError(f"state dim {x0.x.shape} != ({model.n},)")
    return U_init


def solve_batch(model: ModelSpec, field: CostField, starts: Sequence[TimeState],
                warmstarts: Sequence[np.ndarray], max_iter: int,
                reg: RegularizerConfig = RegularizerConfig(),
                tol: float = 1e-6,
                probes: Optional[Probes] = None) -> list[SolveResult]:
    """Solve independent problems under one shared iteration cap.

    Each problem runs up to max_iter iLQR iterations from its warm start.  An
    iteration runs the regularized backward pass and a backtracking line
    search over LINE_SEARCH_ALPHAS that accepts the first step with an actual
    cost decrease, so each problem's accepted cost sequence is non-increasing.
    A problem finishes when its improvement falls below tol (converged), when
    no step decreases its cost (converged if the quadratic model predicts
    almost no decrease, else stalled), or at the cap.  A result holds the
    trajectory, whose step costs sum to the realized cost-to-go, and the
    cost-to-go gradients: the V_x of a backward pass along that trajectory.

    Lockstep: all valid problems are solved together in T steps, the longest
    horizon, one of horizon H held at its start state for the first T - H
    (see _roll and _backward).  An iteration runs one backward pass over all
    unfinished problems and two line-search rollouts: all at alpha = 1, then
    those still searching at the ten smaller step sizes, BLOCK_ROWS // T to a
    stack, each taking its first that decreases the cost -- the step a
    one-alpha-at-a-time search accepts.  A problem that converges, stalls or
    hits the cap leaves the lockstep.  Every operation acts on each problem's
    own rows, and a cost sums the problem's own steps, so results are
    bit-identical to solving each problem alone (a batch of one).

    Two processes: a call without probes whose valid problems hold at least
    SPLIT_ROWS rows (the sum of their horizons) forks one procs.Child where
    procs.spare_cpu allows: two or more CPUs, and no child alive on either
    side.  So a call made in a training iteration's child (its eval), or
    beside one (the next solve), stays in one process: in a 2-CPU train,
    where every iteration forks one, only a fixed-cap iteration 1 can
    split.  The child solves the second half of the valid problems, in
    input order, the parent the first, each in its own lockstep and on one
    BLAS thread; their results and failures are merged by index, with the
    same bits and messages as in one process.  A calibrating call stays in
    one process, because its cap is found in its lockstep; so does a
    smaller call, where the fork and the second CPU's load cost more than
    they save.

    Calibration: with probes = Probes(n, rank, batch_only), the first n
    problems are probes, run up to max_iter, and the others' cap is the
    rank-th smallest probe count, a probe that fails or does not converge
    counting as max_iter.  That is the iteration at which the rank-th probe
    converges, so the lockstep finds it on the way, and the others stop
    there exactly as with max_iter set to it.  A probe leaves as soon as it
    ends, with no final backward pass (V_bar_x None), and all leave once the
    cap is known, unconverged if still running.  With batch_only (the caller
    reads the cap through the others' results alone), they also leave,
    unconverged, once none of the others is still running, so their results
    no longer tell the cap.  When every probe has failed, the others fail at
    once ("every calibration probe failed"), with no iteration.

    Failures are isolated: a problem whose start or warm start is invalid,
    whose initial rollout is not finite, or whose backward pass meets a
    non-finite derivative or matrix fails alone and leaves the lockstep, before
    its values reach a stacked LAPACK call; so does one whose finite matrix
    LAPACK rejects (a singular Quu), found by solving that stack row by row.
    Messages count steps from the problem's start.  Failures are raised with
    their indices in a BatchSolveError once the rest of the batch has
    finished; results are returned in input order.

    Memory: the lockstep holds each problem's trajectories and gains, about
    30 KB per manipulator problem, mostly K_fb (T x m x n values).  A stack of
    line-search candidates holds at most 10 x BLOCK_ROWS (problem, step) rows
    (about 2.5 MB on the manipulator); derivatives are evaluated about
    DERIV_ROWS rows at a time.  Both trade Python overhead per call against
    peak memory; a failed or finished problem's rows are dropped at once.  In
    two processes, the parent holds the lockstep of the first half and the
    child that of the second, and the child's results cross as one pickle
    (about 420 KB for 32 manipulator problems).  Functions the child calls
    run in its own copy of this process: a tracer that wraps them in the
    parent does not see those calls.
    """
    if len(starts) != len(warmstarts):
        raise ValueError("starts and warmstarts must have equal length")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if probes is not None and not 1 <= probes.rank <= probes.n <= len(starts):
        raise ValueError(f"probes {probes} need 1 <= rank <= n <= {len(starts)}")
    system = system_for(model)
    cost = cost_for(model, field)
    results: list = [None] * len(starts)
    errors: dict[int, Exception] = {}
    valid = []
    for i, (x0, warm) in enumerate(zip(starts, warmstarts)):
        try:
            valid.append((i, _initial_controls(model, x0, warm)))
        except ValueError as err:
            errors[i] = err
    solve = partial(_solve_lockstep, system, cost, model.u_bound, starts, max_iter,
                    reg.eps, tol, probes or Probes(0, 1))
    if (probes or sum(len(u_nom) for _, u_nom in valid) < SPLIT_ROWS
            or not spare_cpu()):
        solve(valid, results, errors)
    else:
        half = len(valid) // 2

        def second_half():
            out = [None] * len(results), {}
            solve(valid[half:], *out)
            return out

        with Child(second_half) as child:
            solve(valid[:half], results, errors)
            theirs, their_errors = child.join()
        for i, _ in valid[half:]:
            results[i] = theirs[i]
        errors.update(their_errors)
    if errors:
        raise BatchSolveError(dict(sorted(errors.items())), results)
    return results
