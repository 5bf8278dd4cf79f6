import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trajrl
from trajrl import envs, ilqr
from trajrl.envs import base as envs_base
from trajrl.envs.costs import TaskCost
from trajrl.envs.systems import PointMass
from trajrl.envs import Region, TimeState, toy1d_cost
from trajrl.ilqr import (BatchSolveError, RegularizerConfig, SolverError,
                         regularize_psd, solve_batch)
from trajrl.config import load_config
from trajrl.trainer import kstep_targets, nearest_rank

from lqr_utils import random_lqr, riccati_gains, riccati_value_matrices

REG = RegularizerConfig()


def solve(model, field, x0, U_init, max_iter, reg=REG, tol=1e-6):
    """One problem: a batch of one, whose failure raises its own error."""
    try:
        return solve_batch(model, field, [x0], [U_init], max_iter, reg, tol)[0]
    except BatchSolveError as err:
        raise err.errors[0] from None


def _tail_sums(res):
    """The realized cost-to-go of each step: the tail sums of the step costs."""
    return np.cumsum(res.traj.step_costs[::-1])[::-1]


# -- regularize_psd ---------------------------------------------------------------

def test_regularize_identity_unchanged():
    np.testing.assert_allclose(regularize_psd(np.eye(2), 0.1), np.eye(2),
                               atol=1e-14)


def test_regularize_clips_diagonal():
    out = regularize_psd(np.diag([-1.0, 2.0]), 0.1)
    np.testing.assert_allclose(out, np.diag([0.1, 2.0]), atol=1e-12)


def test_regularize_random_spectra_match_clipped_input_spectra():
    rng = np.random.default_rng(0)
    eps = 0.05
    for _ in range(50):
        m = rng.normal(0.0, 1.0, (6, 6))
        q = m + m.T
        out = regularize_psd(q, eps)
        # independent spectral check on input and output
        expected = np.maximum(np.linalg.eigvalsh(q), eps)
        np.testing.assert_allclose(np.linalg.eigvalsh(out), expected,
                                   atol=1e-8)
        assert np.abs(out - out.T).max() < 1e-10
        np.testing.assert_allclose(regularize_psd(out, eps), out, atol=1e-10)


def test_regularize_rejects_non_finite():
    with pytest.raises(SolverError):
        regularize_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.1)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 4), count=st.integers(1, 5), seed=st.integers(0, 2**16),
       eps=st.sampled_from([1e-6, 1e-2, 1.0]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_regularize_psd_properties(k, count, seed, eps, scale):
    q = np.random.default_rng(seed).normal(0.0, scale, (count, k, k))
    out = regularize_psd(q, eps)
    np.testing.assert_array_equal(out, np.swapaxes(out, -1, -2))
    # the reconstruction rounds, so allow a few ulps of the largest entry
    assert np.linalg.eigvalsh(out).min() >= eps - 1e-12 * max(1.0, np.abs(out).max())
    for qi, oi in zip(q, out):
        np.testing.assert_array_equal(regularize_psd(qi, eps), oi)


# -- backward pass ------------------------------------------------------------------

def _open_loop(spec, field, x0, U):
    return solve(spec, field, TimeState(x0, 0), U, max_iter=1, reg=REG).traj


def _backward(spec, field, traj):
    """Backward pass along one trajectory: a batch of one, its axis dropped."""
    bp = ilqr._backward(envs.system_for(spec), envs.cost_for(spec, field),
                        traj.X[:, None], traj.U[:, None], np.zeros(1, int),
                        REG.eps, spec.u_bound)
    return bp.take(0)


def _closed_loop(spec, field, traj, gains, alpha):
    """u = clamp(u_nom + alpha*k + K(x - x_nom)) around traj."""
    g = gains.take(np.newaxis)
    X, U, sc = ilqr._roll(envs.system_for(spec), envs.cost_for(spec, field),
                          spec.u_bound, traj.X[:1], traj.horizon,
                          lambda k, x: (traj.U[k, None] + alpha * g.k_ff[k]
                                        + ilqr._mv(g.K_fb[k], x - traj.X[k, None])),
                          np.zeros(1, int))
    return ilqr.Trajectory(X=X[:, 0], U=U[:, 0], step_costs=sc[0], t0=traj.t0)



def _backward_step_reference(fx, fu, lx, lu, lxx, luu, vx, vxx, eps, u,
                             u_bound):
    """One problem's backward step with np.ix_ on its free controls: the
    per-problem arithmetic the batched step must reproduce bit for bit."""
    qx = lx + fx.T @ vx
    qu = lu + fu.T @ vx
    fx_t_vxx = fx.T @ vxx
    fu_t_vxx = fu.T @ vxx
    qxx = lxx + fx_t_vxx @ fx
    quu = luu + fu_t_vxx @ fu
    qux = fu_t_vxx @ fx
    clamped = ((u >= u_bound - 1e-9) & (qu < 0.0)) | \
              ((u <= -u_bound + 1e-9) & (qu > 0.0))
    m = qu.shape[0]
    k_ff = np.zeros(m)
    k_fb = np.zeros((m, qx.shape[0]))
    if clamped.all():
        return k_ff, k_fb, qx, regularize_psd(qxx, eps), 0.0
    free = ~clamped
    quu_r = np.zeros((m, m))
    quu_r[np.ix_(free, free)] = regularize_psd(quu[np.ix_(free, free)], eps)
    k_ff[free] = -np.linalg.solve(quu_r[np.ix_(free, free)], qu[free])
    k_fb[free] = -np.linalg.solve(quu_r[np.ix_(free, free)], qux[free])
    qu = np.where(free, qu, 0.0)
    qux = np.where(free[:, None], qux, 0.0)
    vx_new = qx + k_fb.T @ (quu_r @ k_ff) + k_fb.T @ qu + qux.T @ k_ff
    vxx_new = qxx + k_fb.T @ quu_r @ k_fb + k_fb.T @ qux + qux.T @ k_fb
    dec = -(k_ff @ qu + 0.5 * k_ff @ (quu_r @ k_ff))
    return k_ff, k_fb, vx_new, regularize_psd(vxx_new, eps), dec


def _backward_step(fx, fu, lx, lu, lxx, luu, vx, vxx, eps, u, u_bound, k):
    """ilqr._backward_step posed as _backward poses it (under its errstate),
    from per-row vectors and controls; returns the gains, the new (V_x, V_xx)
    and the per-row model decrease, as the reference does."""
    at_hi, at_lo = u >= u_bound - 1e-9, u <= -u_bound + 1e-9
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k_ff, k_fb, vx, vxx, qu, quu_k, all_clamped = ilqr._backward_step(
            fx, fu, np.swapaxes(fx, -1, -2), np.swapaxes(fu, -1, -2),
            lx[..., None], lu[..., None], lxx, luu, vx[..., None], vxx, eps,
            (at_hi, at_lo) if (at_hi | at_lo).any() else None, k,
            np.zeros(len(fx), int))
    k_ff = k_ff[..., 0]
    dec = -(ilqr._dot(k_ff, qu[..., 0]) + 0.5 * ilqr._dot(k_ff, quu_k[..., 0]))
    if all_clamped is not None:
        dec[all_clamped] = 0.0
    return k_ff, k_fb, vx[..., 0], vxx, dec


def test_backward_step_matches_per_problem_reference_bitwise():
    rng = np.random.default_rng(21)
    b, n, m = 300, 6, 3
    u_bound = np.array([1.0, 2.0, 3.0])

    def sym(k):
        a = rng.normal(size=(b, k, k))
        return a @ np.swapaxes(a, -1, -2) - 0.5 * np.eye(k)

    # controls at and inside the bounds (every clamp case, the free-count
    # groups), then all inside (the all-free fork).  The discarded (b, m, n)
    # draw after luu keeps the later inputs at the values the test pins.
    for levels, want_free in (([-1.0, 0.3, 1.0], {0, 1, 2, 3}), ([0.3], {3})):
        args = (rng.normal(size=(b, n, n)), rng.normal(size=(b, n, m)),
                rng.normal(size=(b, n)), rng.normal(size=(b, m)), sym(n), sym(m))
        rng.normal(size=(b, m, n))
        args += (rng.normal(size=(b, n)), sym(n), 0.1,
                 rng.choice(levels, size=(b, m)) * u_bound, u_bound)
        got = _backward_step(*args, 0)
        n_free = set()
        for i in range(b):
            want = _backward_step_reference(*(a[i] for a in args[:8]), args[8],
                                            args[9][i], u_bound)
            for g, w in zip(got, want):
                assert np.asarray(g[i]).tobytes() == np.asarray(w).tobytes()
            n_free.add(int(np.count_nonzero(want[0])))
        assert n_free == want_free

class _TabledModel:
    """System and cost whose derivatives at step k are entry k of drawn
    tables; the first coordinate of each state carries its step k."""

    def __init__(self, rng, t_hor, b, n, m):
        def sym(*shape):
            a = rng.normal(size=shape + shape[-1:])
            return a @ np.swapaxes(a, -1, -2) - 0.5 * np.eye(shape[-1])

        self.fx, self.fu = (rng.normal(size=(t_hor, b, n, n)),
                            rng.normal(size=(t_hor, b, n, m)))
        self.lx, self.lu = (rng.normal(size=(t_hor, b, n)),
                            rng.normal(size=(t_hor, b, m)))
        self.lxx, self.luu = sym(t_hor, b, n), sym(t_hor, b, m)
        self.lt_x, self.lt_xx = rng.normal(size=(b, n)), sym(b, n)

    def jacobians(self, x, u):
        k = x[:, 0, 0].astype(int)
        return self.fx[k], self.fu[k]

    def stage_derivs(self, x, u):
        k = x[:, 0, 0].astype(int)
        return self.lx[k], self.lu[k], self.lxx[k], self.luu[k]

    def terminal_derivs(self, x):
        return self.lt_x, self.lt_xx


@pytest.mark.parametrize("b", [40, 1])
def test_backward_matches_per_problem_reference_bitwise(b):
    # 40 problems take three derivative chunks (DERIV_ROWS // 40 = 6 steps
    # each); one problem's decreases lie contiguous, where np.sum would add
    # them pairwise.  Every third step has all controls inside their bounds,
    # the others controls at both bounds and every free count 0..m.  The
    # model decrease is each problem's per-step decreases summed from step
    # T-1 down.
    rng = np.random.default_rng(22)
    t_hor, n, m, eps = 14, 4, 3, 0.1
    u_bound = np.array([1.0, 2.0, 3.0])
    tab = _TabledModel(rng, t_hor, b, n, m)
    X = np.zeros((t_hor + 1, b, n))
    X[..., 0] = np.arange(t_hor + 1)[:, None]
    U = rng.choice([-1.0, 0.3, 1.0], size=(t_hor, b, m)) * u_bound
    U[::3] = 0.3 * u_bound
    got = ilqr._backward(tab, tab, X, U, np.zeros(b, int), eps, u_bound)
    n_free = set()
    for i in range(b):
        vx, vxx = tab.lt_x[i], regularize_psd(tab.lt_xx[i], eps)
        assert got.V_x[t_hor, i].tobytes() == vx.tobytes()
        expected = 0.0
        for k in range(t_hor - 1, -1, -1):
            k_ff, k_fb, vx, vxx, dec = _backward_step_reference(
                tab.fx[k, i], tab.fu[k, i], tab.lx[k, i], tab.lu[k, i],
                tab.lxx[k, i], tab.luu[k, i], vx, vxx, eps, U[k, i], u_bound)
            expected += dec
            for g, w in ((got.k_ff[k, i], k_ff), (got.K_fb[k, i], k_fb),
                         (got.V_x[k, i], vx)):
                assert g.tobytes() == np.asarray(w).tobytes()
            n_free.add(int(np.count_nonzero(k_ff)))
        assert got.expected_decrease[i].tobytes() == np.float64(expected).tobytes()
    assert n_free == set(range(m + 1)) or b == 1


def test_lapack_gufuncs_match_np_linalg_and_fall_back_to_it():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(40, 3, 3))
    sym = a + np.swapaxes(a, -1, -2)
    for got, want in zip(ilqr._eigh(sym), np.linalg.eigh(sym)):
        assert got.tobytes() == want.tobytes()
    for rhs in (rng.normal(size=(40, 3, 1)), rng.normal(size=(40, 3, 4))):
        assert ilqr._solve(a, rhs).tobytes() == np.linalg.solve(a, rhs).tobytes()
    # a singular matrix in the stack fails all of it, in numpy's words
    a[7] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    with np.errstate(invalid="ignore"), \
            pytest.raises(SolverError, match="^Singular matrix$"):
        ilqr._solve(a, rhs)
    # LAPACK fails on a non-finite matrix
    sym[3, 0, 0] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(SolverError, match="^Eigenvalues did not converge$"):
        ilqr._eigh(sym)


def test_backward_matches_riccati_gains():
    rng = np.random.default_rng(1)
    spec, field, (A, B, Q, R, QF) = random_lqr(rng, n=4, m=2, horizon=30)
    x0 = rng.normal(0.0, 1.0, 4)
    res = solve(spec, field, TimeState(x0, 0), np.zeros((30, 2)),
                max_iter=10, reg=REG)
    bp = _backward(spec, field, res.traj)
    P = riccati_value_matrices(A, B, Q, R, QF, 30)
    K_oracle = riccati_gains(A, B, R, P)
    # at the optimum the feedback gains equal the Riccati gains (u = -K x)
    assert np.abs(bp.K_fb - (-K_oracle)).max() < 1e-8


def test_backward_zero_cost_gives_inert_gains():
    # with zero cost nothing can improve: no feedforward, no expected
    # decrease, and the closed-loop rollout is a fixed point (the eigenvalue
    # floor keeps V_xx at eps, so the feedback matrix itself need not vanish)
    rng = np.random.default_rng(2)
    spec, field, mats = random_lqr(rng, n=3, m=2, horizon=10)
    zero = tuple((k, 0.0) if k[0] in "qrf" else (k, v) for k, v in spec.extra)
    spec0 = envs.ModelSpec(**{**spec.__dict__, "extra": zero})
    traj = _open_loop(spec0, field, rng.normal(0, 1, 3), rng.normal(0, 1, (10, 2)))
    bp = _backward(spec0, field, traj)
    assert np.abs(bp.k_ff).max() == 0.0
    assert bp.expected_decrease == 0.0
    out = _closed_loop(spec0, field, traj, bp, alpha=1.0)
    np.testing.assert_array_equal(out.U, traj.U)


def test_value_gradient_matches_finite_difference_of_resolved_cost(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)
    x0 = np.array([-10.0, 6.0, 1.0, -1.0])   # smooth basin, away from the wall
    T = model.t_max

    def solved_cost(x):
        return solve(model, field, TimeState(x, 0), np.zeros((T, 2)),
                     max_iter=400, reg=reg, tol=1e-10).cost

    res = solve(model, field, TimeState(x0, 0), np.zeros((T, 2)),
                max_iter=400, reg=reg, tol=1e-10)
    assert res.converged
    h = 1e-4
    fd = np.array([(solved_cost(x0 + h * e) - solved_cost(x0 - h * e)) / (2 * h)
                   for e in np.eye(4)])
    rel = np.abs(res.V_bar_x[0] - fd).max() / max(1.0, np.abs(fd).max())
    assert rel < 1e-3


# -- forward rollout ---------------------------------------------------------------

def test_rollout_alpha_zero_with_zero_feedforward_is_identity():
    rng = np.random.default_rng(3)
    spec, field, _ = random_lqr(rng, n=3, m=1, horizon=12)
    traj = _open_loop(spec, field, rng.normal(0, 1, 3), rng.normal(0, 1, (12, 1)))
    bp = _backward(spec, field, traj)
    zeroed = bp._replace(k_ff=np.zeros_like(bp.k_ff))
    out = _closed_loop(spec, field, traj, zeroed, alpha=0.0)
    np.testing.assert_array_equal(out.X, traj.X)
    np.testing.assert_array_equal(out.U, traj.U)


def test_rollout_respects_control_bounds(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-5, 5, 4)
    traj = solve(model, field, TimeState(x0, 0), np.zeros((model.t_max, 2)),
                 max_iter=1, reg=REG).traj
    bp = _backward(model, field, traj)
    huge = bp._replace(k_ff=bp.k_ff + 1e4)
    out = _closed_loop(model, field, traj, huge, alpha=1.0)
    assert np.all(np.abs(out.U) <= model.u_bound + 1e-12)


def test_rollout_alpha_one_reaches_riccati_cost():
    rng = np.random.default_rng(5)
    spec, field, (A, B, Q, R, QF) = random_lqr(rng, n=4, m=2, horizon=25)
    x0 = rng.normal(0.0, 1.0, 4)
    traj = _open_loop(spec, field, x0, np.zeros((25, 2)))
    bp = _backward(spec, field, traj)
    out = _closed_loop(spec, field, traj, bp, alpha=1.0)
    P = riccati_value_matrices(A, B, Q, R, QF, 25)
    assert abs(out.cost - x0 @ P[0] @ x0) < 1e-8 * max(1.0, abs(x0 @ P[0] @ x0))


# -- line search -------------------------------------------------------------------

def _line_search_reference(system, cost, u_bound, st, gains, prev):
    """The backtracking search one step size at a time, each round rolling out
    only the rows still searching: what ilqr._line_search must reproduce.
    Returns each row's accepted index into LINE_SEARCH_ALPHAS (their count
    when none accepts) and the rows with a non-finite candidate."""
    n_alpha = len(ilqr.LINE_SEARCH_ALPHAS)
    accepted = np.full(prev.shape, n_alpha)
    overflow = np.zeros(prev.shape, dtype=bool)
    for i, alpha in enumerate(ilqr.LINE_SEARCH_ALPHAS):
        rows = np.flatnonzero(accepted == n_alpha)
        if not rows.size:
            break
        X, U, sc = ilqr._roll(
            system, cost, u_bound, st.X[0, rows], len(st.U),
            lambda k, x: (st.U[k, rows] + alpha * gains.k_ff[k, rows]
                          + ilqr._mv(gains.K_fb[k, rows], x - st.X[k, rows])),
            st.first[rows])
        c = sc.sum(axis=1)
        overflow[rows[~np.isfinite(c)]] = True
        better = np.isfinite(c) & (c < prev[rows])
        acc = rows[better]
        st.X[:, acc], st.U[:, acc] = X[:, better], U[:, better]
        st.sc[acc], st.cost[acc] = sc[better], c[better]
        accepted[acc] = i
    return accepted, overflow


def _check_line_search_against_reference(rc, name, region, seed):
    """The first iterations of a lockstep solve from zero warm starts, where
    rows accept at alpha = 1 or at a smaller alpha, and from the
    manipulator's hard region some candidates overflow; one extra row has
    inert (zero) gains, as with every control clamped, and accepts none.
    Returns the most rows that searched past alpha = 1 in one iteration."""
    model = rc.model
    system, cost = envs.system_for(model), envs.cost_for(model, rc.field)
    starts = envs.sample_initial_states(model, 6, seed, region)
    x0 = np.stack([s.x for s in starts] + [starts[0].x])
    first = np.zeros(len(x0), dtype=int)
    X, U, sc = ilqr._roll(system, cost, model.u_bound, x0, model.t_max,
                          lambda k, x: np.zeros((len(x0), model.m)), first)
    st = ilqr._Lockstep(np.arange(len(x0)), first, first, X, U, sc)
    n_alpha = len(ilqr.LINE_SEARCH_ALPHAS)
    seen, overflow, most = set(), False, 0
    for it in range(8):
        gains = ilqr._backward(system, cost, st.X, st.U, st.first,
                               rc.train.reg_eps, model.u_bound)
        if it == 0:
            gains.k_ff[:, -1], gains.K_fb[:, -1] = 0.0, 0.0
        prev = st.cost.copy()
        want = copy.deepcopy(st)
        accepted, over = _line_search_reference(system, cost, model.u_bound, want,
                                                gains, prev)
        searching = ilqr._line_search(system, cost, model.u_bound, st, gains, prev)
        assert searching.tobytes() == (accepted == n_alpha).tobytes()
        for a in ("X", "U", "sc", "cost"):
            assert getattr(st, a).tobytes() == getattr(want, a).tobytes()
        seen.update(np.select([accepted == 0, accepted < n_alpha],
                              ["alpha=1", "smaller"], "none"))
        overflow |= over.any()
        most = max(most, int((accepted > 0).sum()))
        st.take(~searching)
    assert seen == {"alpha=1", "smaller", "none"}
    assert overflow == (name == "manipulator")
    return most


@pytest.mark.parametrize("name, region, seed", [
    ("toy1d", Region.WORKSPACE, 3), ("pointmass", Region.WORKSPACE, 3),
    ("dubins", Region.WORKSPACE, 3), ("manipulator", Region.HARD_REGION, 4)])
def test_line_search_matches_sequential_reference_bitwise(request, name, region,
                                                          seed):
    rc = request.getfixturevalue(f"{'toy' if name == 'toy1d' else name}_rc")
    _check_line_search_against_reference(rc, name, region, seed)


@pytest.mark.parametrize("name, region, seed", [
    ("toy1d", Region.WORKSPACE, 6), ("pointmass", Region.WORKSPACE, 3),
    ("dubins", Region.WORKSPACE, 3), ("manipulator", Region.HARD_REGION, 4)])
def test_line_search_in_pieces_matches_sequential_reference_bitwise(
        request, monkeypatch, name, region, seed):
    # candidate stacks of at most two searching rows: in some iteration at
    # least five of the 7 rows search, and are rolled in three pieces or more
    rc = request.getfixturevalue(f"{'toy' if name == 'toy1d' else name}_rc")
    monkeypatch.setattr(ilqr, "BLOCK_ROWS", 2 * rc.model.t_max)
    assert _check_line_search_against_reference(rc, name, region, seed) >= 5


def test_line_search_rolls_out_twice_per_iteration(pointmass_rc, monkeypatch):
    model, field = pointmass_rc.model, pointmass_rc.field
    calls = []
    real = ilqr._roll
    monkeypatch.setattr(ilqr, "_roll", lambda *args: calls.append(1) or real(*args))
    starts = envs.sample_initial_states(model, 8, 3, Region.WORKSPACE)
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)
    res = solve_batch(model, field, starts, [np.zeros((model.t_max, 2))] * 8,
                      max_iter=25, reg=reg)
    assert len(calls) <= 1 + 2 * max(r.iters_used for r in res)


def test_row_costs_sum_each_row_alone_bitwise():
    # rows led by held steps: each cost is the row's own step costs summed
    # alone, which a sum over the whole row with those steps zeroed is not
    rng = np.random.default_rng(24)
    sc = rng.normal(size=(40, 61)) * 10.0 ** rng.integers(-3, 4, size=(40, 61))
    first = rng.integers(0, 50, size=40)
    got = ilqr._costs(sc, first)
    want = np.array([sc[i, f:].sum() for i, f in enumerate(first)])
    assert got.tobytes() == want.tobytes()
    zero_led = np.where(np.arange(61) < first[:, None], 0.0, sc).sum(axis=1)
    assert zero_led.tobytes() != want.tobytes()


def test_one_lockstep_per_horizon_with_bounded_candidate_stack(toy_rc,
                                                               monkeypatch):
    # 12 problems at mixed start times share one lockstep as long as the
    # longest horizon: every backward pass spans t_max steps, and the first
    # holds all 12 rows.  BLOCK_ROWS bounds the line search's candidate
    # stack to 4 searching problems, so the 8 or more that search in the
    # first iteration are rolled in two pieces or more
    model, field = toy_rc.model, toy_rc.field
    reg = RegularizerConfig(eps=toy_rc.train.reg_eps)
    monkeypatch.setattr(ilqr, "BLOCK_ROWS", 4 * model.t_max)
    backward_shapes, roll_rows, searches = [], [], []
    real_backward, real_roll = ilqr._backward, ilqr._roll
    real_search = ilqr._line_search
    monkeypatch.setattr(ilqr, "_backward", lambda system, cost, X, *args: (
        backward_shapes.append(X.shape[:2]) or real_backward(system, cost, X, *args)))
    monkeypatch.setattr(ilqr, "_roll", lambda system, cost, u_bound, x0, *args: (
        roll_rows.append(len(x0)) or real_roll(system, cost, u_bound, x0, *args)))
    monkeypatch.setattr(ilqr, "_line_search", lambda *args: (
        searches.append(len(roll_rows)) or real_search(*args)))
    times = (0, 7, 30, 0, 12, 45, 3, 21, 0, 59, 16, 38)
    starts = [TimeState(s.x, t) for s, t in zip(
        envs.sample_initial_states(model, 12, 6, Region.WORKSPACE), times)]
    warms = [np.zeros((model.t_max - s.t, model.m)) for s in starts]
    batch = solve_batch(model, field, starts, warms, max_iter=3, reg=reg)
    assert backward_shapes[0] == (model.t_max + 1, 12)
    assert {t for t, _ in backward_shapes} == {model.t_max + 1}
    assert len(backward_shapes) <= 1 + max(r.iters_used for r in batch)
    assert max(roll_rows) <= 10 * 4
    bounds = searches + [len(roll_rows)]
    assert max(b - a for a, b in zip(bounds, bounds[1:])) >= 3
    monkeypatch.undo()
    for res, s, w in zip(batch, starts, warms):
        _assert_same_result(res, solve(model, field, s, w, max_iter=3, reg=reg))


# -- solve -----------------------------------------------------------------------

def test_solve_lqr_two_iterations_to_converged():
    rng = np.random.default_rng(6)
    for _ in range(5):
        spec, field, (A, B, Q, R, QF) = random_lqr(rng)
        n, m, T = spec.n, spec.m, spec.t_max
        x0 = rng.normal(0.0, 1.0, n)
        res = solve(spec, field, TimeState(x0, 0), np.zeros((T, m)),
                    max_iter=20, reg=REG)
        P = riccati_value_matrices(A, B, Q, R, QF, T)
        opt = x0 @ P[0] @ x0
        assert res.converged and res.iters_used <= 2
        assert abs(res.cost - opt) < 1e-6 * max(1.0, abs(opt))


def test_solve_from_optimal_warm_start_converges_immediately():
    rng = np.random.default_rng(7)
    spec, field, _ = random_lqr(rng, n=3, m=2, horizon=15)
    x0 = rng.normal(0.0, 1.0, 3)
    first = solve(spec, field, TimeState(x0, 0), np.zeros((15, 2)),
                  max_iter=20, reg=REG)
    again = solve(spec, field, TimeState(x0, 0), first.traj.U,
                  max_iter=20, reg=REG)
    assert again.converged and again.iters_used == 1
    np.testing.assert_allclose(again.traj.U, first.traj.U, atol=1e-8)


def test_value_gradients_match_backward_of_returned_trajectory(pointmass_rc):
    # covers each way a solve ends: no descent step (the last pass is
    # reused), converged after a step, and the cap hit after a step
    rng = np.random.default_rng(13)
    spec, field, _ = random_lqr(rng, n=3, m=2, horizon=15)
    x0 = TimeState(rng.normal(0.0, 1.0, 3), 0)
    first = solve(spec, field, x0, np.zeros((15, 2)), max_iter=20, reg=REG)
    again = solve(spec, field, x0, first.traj.U, max_iter=20, reg=REG)
    model = pointmass_rc.model
    capped = solve(model, pointmass_rc.field,
                   TimeState(np.array([8.0, 2.0, 0.0, 0.0]), 0),
                   np.zeros((model.t_max, 2)), max_iter=3, reg=REG)
    assert not capped.converged and capped.iters_used == 3
    for res, sp, fl in ((first, spec, field), (again, spec, field),
                        (capped, model, pointmass_rc.field)):
        np.testing.assert_array_equal(res.V_bar_x,
                                      _backward(sp, fl, res.traj).V_x)


def test_solve_rejects_bad_inputs(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    with pytest.raises(ValueError):
        solve(model, field, TimeState(np.zeros(4), 0),
              np.zeros((model.t_max, 2)), max_iter=0)
    with pytest.raises(SolverError):
        solve(model, field, TimeState(np.full(4, np.nan), 0),
              np.zeros((model.t_max, 2)), max_iter=3)


def test_solve_cost_non_increasing_with_iteration_cap(pointmass_rc):
    # a cap of k returns the trajectory accepted after k iterations, so the
    # costs over growing caps are the accepted cost sequence
    model, field = pointmass_rc.model, pointmass_rc.field
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)

    def capped(k):
        return solve(model, field, TimeState(np.array([8.0, 2.0, 0.0, 0.0]), 0),
                     np.zeros((model.t_max, 2)), max_iter=k, reg=reg)

    full = capped(200)
    costs = [capped(k).cost for k in range(1, full.iters_used + 1)]
    assert full.iters_used > 1 and costs[-1] == full.cost
    assert all(b <= a for a, b in zip(costs, costs[1:]))


# -- toy basin oracle ---------------------------------------------------------------

def _toy_dp_values(model, field, basin_lo, basin_hi, npts=3001, nu=161):
    """Brute-force minimum over a dense discretized control grid (dynamic
    programming with linear interpolation), restricted to one basin; returns
    the state grid and the optimal cost-to-go at t = 0 on it."""
    dt = model.dt
    w_u = field.control_weight
    xs = np.linspace(basin_lo, basin_hi, npts)
    us = np.linspace(-model.u_max[0], model.u_max[0], nu)
    value = toy1d_cost(xs)                     # terminal cost
    x_next = xs[:, None] + dt * us[None, :]
    stage = toy1d_cost(xs)[:, None] + w_u * us[None, :] ** 2
    invalid = (x_next < basin_lo) | (x_next > basin_hi)
    for _ in range(model.t_max):
        cont = np.interp(x_next.ravel(), xs, value).reshape(x_next.shape)
        total = stage + cont
        total[invalid] = np.inf
        value = total.min(axis=1)
    return xs, value


def test_toy_solver_matches_per_basin_brute_force(toy_rc):
    model, field = toy_rc.model, toy_rc.field
    reg = RegularizerConfig(eps=toy_rc.train.reg_eps)
    barrier = 0.0754291585697482
    starts = np.linspace(-2.0, 2.0, 200)
    results = solve_batch(model, field,
                          [TimeState(np.array([x]), 0) for x in starts],
                          [np.zeros((model.t_max, 1))] * len(starts),
                          max_iter=400, reg=reg)
    basins = {True: _toy_dp_values(model, field, barrier, 2.3),
              False: _toy_dp_values(model, field, -2.3, barrier)}
    worst = 0.0
    for x, res in zip(starts, results):
        in_right_basin = bool(res.traj.X[-1, 0] > barrier)
        oracle = float(np.interp(x, *basins[in_right_basin]))
        worst = max(worst, abs(res.cost - oracle))
    assert worst < 1e-3


# -- batch ------------------------------------------------------------------------

def test_batch_of_one_equals_solve(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)
    start = TimeState(np.array([4.0, -3.0, 0.0, 0.0]), 0)
    warm = np.zeros((model.t_max, 2))
    single = solve(model, field, start, warm, max_iter=40, reg=reg)
    batch = solve_batch(model, field, [start], [warm], max_iter=40, reg=reg)
    assert len(batch) == 1
    assert batch[0].cost == single.cost
    np.testing.assert_array_equal(batch[0].traj.U, single.traj.U)


def test_batch_equals_sequential_bitwise(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)
    starts = envs.sample_initial_states(model, 8, 99, Region.WORKSPACE)
    warms = [np.zeros((model.t_max, 2))] * len(starts)
    seq = [solve(model, field, s, w, max_iter=25, reg=reg)
           for s, w in zip(starts, warms)]
    par = solve_batch(model, field, starts, warms, max_iter=25, reg=reg)
    for a, b in zip(seq, par):
        assert a.cost == b.cost
        np.testing.assert_array_equal(a.traj.X, b.traj.X)
        np.testing.assert_array_equal(a.V_bar_x, b.V_bar_x)
        assert a.iters_used == b.iters_used and a.converged == b.converged


def test_batch_shuffled_inputs_give_shuffled_outputs(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)
    starts = envs.sample_initial_states(model, 6, 123, Region.WORKSPACE)
    warms = [np.zeros((model.t_max, 2))] * 6
    base = solve_batch(model, field, starts, warms, max_iter=15, reg=reg)
    perm = [3, 0, 5, 1, 4, 2]
    shuffled = solve_batch(model, field, [starts[i] for i in perm],
                           [warms[i] for i in perm], max_iter=15, reg=reg)
    for out_pos, in_pos in enumerate(perm):
        assert shuffled[out_pos].cost == base[in_pos].cost


def test_batch_collects_per_problem_errors_with_index(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    good = TimeState(np.array([4.0, 0.0, 0.0, 0.0]), 0)
    bad = TimeState(np.full(4, np.nan), 0)
    warms = [np.zeros((model.t_max, 2))] * 3
    with pytest.raises(BatchSolveError) as exc:
        solve_batch(model, field, [good, bad, good], warms, max_iter=5, reg=REG)
    err = exc.value
    assert set(err.errors) == {1}
    assert err.results[0] is not None and err.results[2] is not None
    assert err.results[0].cost == err.results[2].cost


def _assert_same_result(a, b):
    for got, want in ((a.traj.X, b.traj.X), (a.traj.U, b.traj.U),
                      (a.traj.step_costs, b.traj.step_costs),
                      (a.V_bar_x, b.V_bar_x)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (a.cost, a.iters_used, a.converged, a.traj.t0) == \
        (b.cost, b.iters_used, b.converged, b.traj.t0)


def test_invalid_start_or_warm_start_fails_alone(pointmass_rc):
    # problem 1's warm start runs one step past t_max, problem 3's state has
    # the wrong dimension; both fail before the lockstep, which solves the
    # rest as it would without them
    model, field = pointmass_rc.model, pointmass_rc.field
    starts = envs.sample_initial_states(model, 5, 77, Region.WORKSPACE)
    starts[1] = TimeState(starts[1].x, 40)
    starts[3] = TimeState(np.zeros(model.n - 1), 0)
    warms = [np.zeros((model.t_max - s.t, model.m)) for s in starts]
    warms[1] = np.zeros((model.t_max - 39, model.m))
    with pytest.raises(BatchSolveError) as exc:
        solve_batch(model, field, starts, warms, max_iter=8, reg=REG)
    errors = exc.value.errors
    assert set(errors) == {1, 3}
    assert str(errors[1]) == f"horizon {model.t_max - 39} starting at t=40 exceeds " \
        f"t_max={model.t_max}"
    assert str(errors[3]) == f"state dim ({model.n - 1},) != ({model.n},)"
    kept = [0, 2, 4]
    alone = solve_batch(model, field, [starts[i] for i in kept],
                        [warms[i] for i in kept], max_iter=8, reg=REG)
    for i, want in zip(kept, alone):
        _assert_same_result(exc.value.results[i], want)
    with pytest.raises(ValueError, match="equal length"):
        solve_batch(model, field, starts, warms[:-1], max_iter=8, reg=REG)


def test_non_finite_stage_derivative_fails_its_problem_alone(pointmass_rc, monkeypatch):
    # problem 2's l_xx is NaN at its start state, which is its step 0 in every
    # backward pass; it fails in the first, the others solve as without it
    model, field = pointmass_rc.model, pointmass_rc.field
    starts = envs.sample_initial_states(model, 4, 78, Region.WORKSPACE)
    warms = [np.zeros((model.t_max, model.m))] * len(starts)
    kept = [0, 1, 3]
    alone = solve_batch(model, field, [starts[i] for i in kept],
                        [warms[i] for i in kept], max_iter=8, reg=REG)
    cost_cls = type(envs.cost_for(model, field))
    real = cost_cls.stage_derivs

    def nan_at_start(self, x, u):
        lx, lu, lxx, luu = real(self, x, u)
        lxx[(x == starts[2].x).all(axis=-1)] = np.nan
        return lx, lu, lxx, luu

    monkeypatch.setattr(cost_cls, "stage_derivs", nan_at_start)
    with pytest.raises(BatchSolveError) as exc:
        solve_batch(model, field, starts, warms, max_iter=8, reg=REG)
    assert {i: str(e) for i, e in exc.value.errors.items()} == \
        {2: "non-finite lxx at step 0"}
    for i, want in zip(kept, alone):
        _assert_same_result(exc.value.results[i], want)


def test_mixed_start_times_equal_batch_of_one_bitwise(pointmass_rc):
    # ragged horizons, as randomize_initial_time produces
    model, field = pointmass_rc.model, pointmass_rc.field
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)
    base = envs.sample_initial_states(model, 6, 31, Region.WORKSPACE)
    starts = [TimeState(s.x, t) for s, t in zip(base, (0, 40, 5, 40, 59, 0))]
    warms = [np.zeros((model.t_max - s.t, 2)) for s in starts]
    batch = solve_batch(model, field, starts, warms, max_iter=20, reg=reg)
    for res, s, w in zip(batch, starts, warms):
        _assert_same_result(res, solve(model, field, s, w, max_iter=20,
                                       reg=reg))


def test_manipulator_failure_leaves_other_problems_bitwise(manipulator_rc):
    # problem 4 fails in its first backward pass (a non-finite V_xx at step
    # 99); the others share its stacked calls until then
    model, field = manipulator_rc.model, manipulator_rc.field
    reg = RegularizerConfig(eps=manipulator_rc.train.reg_eps)
    starts = envs.sample_initial_states(model, 5, 12345, Region.WORKSPACE)
    warms = [np.zeros((model.t_max, model.m))] * len(starts)
    with pytest.raises(BatchSolveError) as exc:
        solve_batch(model, field, starts, warms, max_iter=3, reg=reg)
    assert set(exc.value.errors) == {4}
    assert exc.value.results[4] is None
    for i in range(4):
        _assert_same_result(exc.value.results[i],
                            solve(model, field, starts[i], warms[i],
                                  max_iter=3, reg=reg))



def test_failing_problems_never_reach_lapack_with_non_finite_input(
        manipulator_rc, monkeypatch):
    # problem 4 fails in its first backward pass and the NaN start in its
    # initial rollout, and problem 6 starts at t = 40, so it is held and its
    # first steps inert; the manipulator's dynamics call np.linalg's solve
    # and inv, and the solver numpy's LAPACK gufuncs eigh_lo and solve, all
    # on stacks shared with the other problems
    model, field = manipulator_rc.model, manipulator_rc.field
    calls, non_finite = [], []

    def checked(name, real):
        def call(*arrays, **kwargs):
            calls.append(name)
            if not all(np.isfinite(a).all() for a in arrays):
                non_finite.append(name)
            return real(*arrays, **kwargs)
        return call

    for name in ("solve", "inv", "eigh"):
        monkeypatch.setattr(np.linalg, name, checked(name, getattr(np.linalg, name)))
    monkeypatch.setattr(ilqr, "_umath_linalg", types.SimpleNamespace(**{
        name: checked(f"gufunc {name}", getattr(ilqr._umath_linalg, name))
        for name in ("eigh_lo", "solve")}))
    starts = envs.sample_initial_states(model, 5, 12345, Region.WORKSPACE)
    starts += [TimeState(np.full(model.n, np.nan), 0), TimeState(starts[0].x, 40)]
    warms = [np.zeros((model.t_max - s.t, model.m)) for s in starts]
    with pytest.raises(BatchSolveError) as exc:
        solve_batch(model, field, starts, warms, max_iter=3,
                    reg=RegularizerConfig(eps=manipulator_rc.train.reg_eps))
    assert set(exc.value.errors) == {4, 5}
    assert non_finite == []
    assert {"solve", "inv", "gufunc eigh_lo", "gufunc solve"} <= set(calls)


@envs_base.register_system("pointmass-spike")
class _SpikedPointMass(PointMass):
    """The point mass whose control Hessian gains a finite rank-one block of
    1e120 at x_0 > 50.  After the eigen-clip the block is singular to working
    precision, and LAPACK rejects the whole stack that holds it."""

    def cost(self, field):
        return _SpikedCost(self, field)


class _SpikedCost(TaskCost):
    def stage_derivs(self, x, u):
        *derivs, luu = super().stage_derivs(x, u)
        spike = np.zeros(luu.shape)
        spike[x[..., 0] > 50.0] = 1e120 * np.ones((2, 2))
        return (*derivs, luu + spike)


def test_singular_quu_fails_its_problem_alone(pointmass_rc):
    model = dataclasses.replace(pointmass_rc.model, name="pointmass-spike")
    field = pointmass_rc.field
    starts = envs.sample_initial_states(model, 4, 5, Region.WORKSPACE)
    starts[2] = TimeState(np.array([60.0, 0.0, 0.0, 0.0]), 0)
    warms = [np.zeros((model.t_max, 2))] * len(starts)
    with pytest.raises(BatchSolveError) as exc:
        solve_batch(model, field, starts, warms, max_iter=10, reg=REG)
    assert set(exc.value.errors) == {2}
    assert "Singular matrix" in str(exc.value.errors[2])
    for i in (0, 1, 3):
        _assert_same_result(exc.value.results[i],
                            solve(model, field, starts[i], warms[i], max_iter=10,
                                  reg=REG))


def test_backward_step_fails_singular_free_block_by_problem_row():
    # rows 3 and 5 have their last control clamped (u at the bound, qu < 0),
    # and row 5's free 2x2 block of Quu is the singular spike; its group's
    # stacked solve raises, and the failure is reported as row 5
    rng = np.random.default_rng(9)
    b, n, m = 8, 4, 3
    u_bound = np.ones(m)
    u = np.zeros((b, m))
    lu = rng.normal(size=(b, m))
    u[[3, 5], 2], lu[[3, 5], 2] = 1.0, -1.0
    luu = np.broadcast_to(np.eye(m), (b, m, m)).copy()
    luu[5, :2, :2] += 1e120
    with pytest.raises(ilqr._RowsFailed) as exc:
        _backward_step(rng.normal(size=(b, n, n)), rng.normal(size=(b, n, m)),
                            rng.normal(size=(b, n)), lu,
                            np.broadcast_to(np.eye(n), (b, n, n)), luu,
                            np.zeros((b, n)),
                            np.broadcast_to(np.eye(n), (b, n, n)), 1e-6, u,
                            u_bound, 7)
    assert list(exc.value.errors) == [5]
    assert str(exc.value.errors[5]) == \
        "backward pass failed at step 7: Singular matrix"


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(["toy1d", "pointmass", "lintest"]),
       seed=st.integers(0, 2**16),
       times=st.lists(st.sampled_from([0, 0, 0, 7, 30]), min_size=1,
                      max_size=6),
       data=st.data())
def test_solve_batch_invariant_under_permutation_and_split(name, seed, times,
                                                           data):
    if name == "lintest":
        model, field, _ = random_lqr(np.random.default_rng(seed), horizon=40)
    elif name == "toy1d":
        model = envs.default_model(name)
        field = envs.CostField(control_weight=0.01)
    else:
        model = envs.default_model(name)
        field = envs.CostField(obstacles=(envs.Ellipse((0.0, 3.5), (1.8, 3.2)),
                                          envs.Ellipse((0.0, -3.5), (1.8, 3.2)),
                                          envs.Ellipse((1.2, 0.0), (2.2, 1.4))),
                               obstacle_weight=10.0, control_weight=0.005)
    reg = RegularizerConfig(eps=0.1)
    base = envs.sample_initial_states(model, len(times), seed, Region.WORKSPACE)
    starts = [TimeState(s.x, t) for s, t in zip(base, times)]
    warms = [np.zeros((model.t_max - s.t, model.m)) for s in starts]

    def run(idx):
        return solve_batch(model, field, [starts[i] for i in idx],
                           [warms[i] for i in idx], max_iter=6, reg=reg)

    whole = run(range(len(starts)))
    perm = data.draw(st.permutations(range(len(starts))))
    for pos, res in zip(perm, run(perm)):
        _assert_same_result(res, whole[pos])
    cut = data.draw(st.integers(0, len(starts)))
    for res, want in zip(run(range(cut)) + run(range(cut, len(starts))),
                         whole):
        _assert_same_result(res, want)


def test_lqr_batch_split_matches_whole_batch_bitwise():
    # a case the property test above drew while the LQR fixture's quadratic
    # costs were einsums, which round with the batch size: the third
    # problem's terminal step cost differed in its last bit between batches
    # of 3 and 2
    model, field, _ = random_lqr(np.random.default_rng(382), horizon=40)
    starts = envs.sample_initial_states(model, 3, 382, Region.WORKSPACE)
    warms = [np.zeros((model.t_max, model.m))] * 3
    reg = RegularizerConfig(eps=0.1)

    def run(rows):
        return solve_batch(model, field, starts[rows], warms[rows], max_iter=6,
                           reg=reg)

    for res, want in zip(run(slice(1)) + run(slice(1, 3)), run(slice(3))):
        _assert_same_result(res, want)


# -- two processes -----------------------------------------------------------------

def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """Every call without probes forks, on any machine; returns the pids
    that called os.fork."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(ilqr, "SPLIT_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _spiked_mixed_batch(pointmass_rc):
    """Pointmass starts at mixed start times, as randomize_initial_time makes
    them, under the singular-Quu spike: problems 1 and 6 start in the spike
    and 5 has a non-finite warm start, so the first half and the second
    both fail problems."""
    model = dataclasses.replace(pointmass_rc.model, name="pointmass-spike")
    base = envs.sample_initial_states(model, 8, 17, Region.WORKSPACE)
    times = (0, 40, 5, 40, 59, 0, 12, 0)
    starts = [TimeState(s.x, t) for s, t in zip(base, times)]
    for i in (1, 6):
        starts[i] = TimeState(np.array([60.0, 0.0, 0.0, 0.0]), times[i])
    warms = [np.zeros((model.t_max - s.t, 2)) for s in starts]
    warms[5] = np.full(warms[5].shape, np.nan)
    return model, pointmass_rc.field, starts, warms


def test_split_call_equals_one_process_bitwise(pointmass_rc, monkeypatch, split):
    model, field, starts, warms = _spiked_mixed_batch(pointmass_rc)

    def run():
        with pytest.raises(BatchSolveError) as exc:
            solve_batch(model, field, starts, warms, max_iter=10, reg=REG)
        return exc.value

    two = run()
    assert split == [os.getpid()]
    _assert_no_child()
    monkeypatch.setattr(ilqr, "SPLIT_ROWS", 10**9)
    one = run()
    assert len(split) == 1
    assert set(one.errors) == {1, 5, 6}
    assert "Singular matrix" in str(one.errors[6])
    # a message names the problem's own step, as when it is solved alone
    with pytest.raises(SolverError) as alone:
        solve(model, field, starts[6], warms[6], max_iter=10)
    assert str(one.errors[6]) == str(alone.value)
    assert str(two) == str(one)
    assert {i: (type(e), str(e)) for i, e in two.errors.items()} == \
        {i: (type(e), str(e)) for i, e in one.errors.items()}
    for got, want in zip(two.results, one.results):
        assert (got is None) == (want is None)
        if want is not None:
            _assert_same_result(got, want)


def test_batch_solve_error_survives_pickling(pointmass_rc):
    # it crosses from a child process as a pickle (procs.Child)
    model, field, starts, warms = _spiked_mixed_batch(pointmass_rc)
    with pytest.raises(BatchSolveError) as exc:
        solve_batch(model, field, starts, warms, max_iter=10, reg=REG)
    err = exc.value
    back = pickle.loads(pickle.dumps(err, pickle.HIGHEST_PROTOCOL))
    assert type(back) is BatchSolveError and str(back) == str(err)
    assert {i: (type(e), str(e)) for i, e in back.errors.items()} == \
        {i: (type(e), str(e)) for i, e in err.errors.items()}
    assert [r is None for r in back.results] == [r is None for r in err.results]
    for got, want in zip(back.results, err.results):
        if want is not None:
            _assert_same_result(got, want)


def test_split_call_that_returns_leaves_no_child(pointmass_rc, split):
    model, field = pointmass_rc.model, pointmass_rc.field
    starts = envs.sample_initial_states(model, 4, 3, Region.WORKSPACE)
    warms = [np.zeros((model.t_max, 2))] * len(starts)
    results = solve_batch(model, field, starts, warms, max_iter=5, reg=REG)
    assert len(split) == 1 and all(r is not None for r in results)
    _assert_no_child()


@pytest.mark.parametrize("fault", ["child exits", "child raises", "parent raises"])
def test_split_call_fails_whole_and_reaps_its_child(pointmass_rc, monkeypatch,
                                                    split, fault):
    # the child's half solves the second problem; a child that exits without
    # its results fails the call, as does an exception on either side, which
    # reaches the caller as it was raised; a parent that fails first kills
    # its child rather than wait for it
    model, field = pointmass_rc.model, pointmass_rc.field
    starts = envs.sample_initial_states(model, 2, 3, Region.WORKSPACE)
    warms = [np.zeros((model.t_max, 2))] * len(starts)
    parent, real = os.getpid(), ilqr._solve_lockstep

    def half(*args, **kwargs):
        in_child = os.getpid() != parent
        if fault == "child exits" and in_child:
            os._exit(3)
        if fault == "child raises" and in_child:
            raise MemoryError("child")
        if fault == "parent raises":
            if not in_child:
                raise KeyboardInterrupt
            time.sleep(60)
        return real(*args, **kwargs)

    monkeypatch.setattr(ilqr, "_solve_lockstep", half)
    want = {"child exits": (RuntimeError, "exited with status 3"),
            "child raises": (MemoryError, "child"),
            "parent raises": (KeyboardInterrupt, "")}[fault]
    t0 = time.perf_counter()
    with pytest.raises(BaseException) as exc:
        solve_batch(model, field, starts, warms, max_iter=5, reg=REG)
    assert exc.type is want[0] and want[1] in str(exc.value)
    assert time.perf_counter() - t0 < 30.0
    _assert_no_child()


@pytest.mark.parametrize("config", ["pointmass.ini", "toy1d.ini"])
def test_bench_train_calls_stay_below_split_rows(config):
    # a training batch or an eval of the benchmark's train workloads holds
    # at most this many starts of at most t_max steps
    rc = load_config(Path(__file__).resolve().parents[1] / "perfbench"
                     / "configs" / config)
    tc = rc.train
    rows = max(tc.n_episodes, tc.later_batch, tc.eval_count) * rc.model.t_max
    assert rows < ilqr.SPLIT_ROWS


def test_calls_that_stay_in_one_process(pointmass_rc, monkeypatch):
    # with probes (the cap is found in their lockstep), below SPLIT_ROWS, with
    # one CPU, and where os.sched_getaffinity is missing (macOS, Windows)
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    model, field = pointmass_rc.model, pointmass_rc.field
    starts = envs.sample_initial_states(model, 8, 3, Region.WORKSPACE)
    warms = [np.zeros((model.t_max, 2))] * len(starts)
    assert len(solve_batch(model, field, starts, warms, max_iter=5)) == 8
    monkeypatch.setattr(ilqr, "SPLIT_ROWS", 1)
    assert len(solve_batch(model, field, starts, warms, max_iter=5,
                           probes=ilqr.Probes(3, 2))) == 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert len(solve_batch(model, field, starts, warms, max_iter=5)) == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    assert len(solve_batch(model, field, starts, warms, max_iter=5)) == 8


# -- K-step targets of solved trajectories (trainer.kstep_targets) ------------------

def _lqr_solved(rng, **kw):
    spec, field, mats = random_lqr(rng, **kw)
    x0 = rng.normal(0.0, 1.0, spec.n)
    res = solve(spec, field, TimeState(x0, 0), np.zeros((spec.t_max, spec.m)),
                max_iter=10, reg=REG)
    return spec, field, mats, res


def test_kstep_full_horizon_reproduces_solver_values():
    rng = np.random.default_rng(8)
    spec, field, _, res = _lqr_solved(rng, n=3, m=1, horizon=20)
    batch = kstep_targets(res, spec.t_max, spec.t_max)
    assert batch.v_bar[0] == _tail_sums(res)[0] == res.cost
    np.testing.assert_array_equal(batch.v_bar_x[0], res.V_bar_x[0])
    assert len(batch) == spec.t_max + 1


def test_kstep_one_step_values_are_step_costs():
    rng = np.random.default_rng(9)
    spec, field, _, res = _lqr_solved(rng, n=3, m=2, horizon=15)
    batch = kstep_targets(res, 1, spec.t_max)
    t_hor = spec.t_max
    for k in range(t_hor - 1):
        assert batch.v_bar[k] == res.traj.step_costs[k]
        assert batch.xa_plus_k[k, -1] == k + 1
    # the last one-step window reaches the horizon and picks up the terminal cost
    assert batch.v_bar[t_hor - 1] == _tail_sums(res)[t_hor - 1]
    assert batch.v_bar[t_hor] == res.traj.step_costs[t_hor]


def test_kstep_five_step_plus_riccati_value_telescopes():
    rng = np.random.default_rng(10)
    spec, field, (A, B, Q, R, QF), res = _lqr_solved(rng, n=4, m=2, horizon=30)
    P = riccati_value_matrices(A, B, Q, R, QF, 30)
    batch = kstep_targets(res, 5, spec.t_max)
    for k in range(30 - 5):
        x_plus = batch.xa_plus_k[k, :-1]
        v_tail = x_plus @ P[k + 5] @ x_plus
        assert batch.v_bar[k] + v_tail == pytest.approx(_tail_sums(res)[k],
                                                        abs=1e-6)


def test_kstep_rejects_bad_lookahead():
    rng = np.random.default_rng(11)
    spec, _, _, res = _lqr_solved(rng, n=2, m=1, horizon=8)
    with pytest.raises(ValueError):
        kstep_targets(res, 0, spec.t_max)


def _kstep_reference(res, K):
    """Targets built one window at a time, K' = min(K, T-k) steps each."""
    traj = res.traj
    t_hor = traj.horizon
    rows = []
    for k in range(t_hor + 1):
        j = k + min(K, t_hor - k)
        v_bar = (_tail_sums(res)[k] if j == t_hor
                 else float(traj.step_costs[k:j].sum()))
        rows.append((np.append(traj.X[k], float(traj.t0 + k)), v_bar,
                     res.V_bar_x[k], np.append(traj.X[j], float(traj.t0 + j))))
    return [np.array(col) for col in zip(*rows)]


def test_kstep_matches_per_window_reference_bitwise(pointmass_rc):
    rng = np.random.default_rng(12)
    spec, _, _, lqr = _lqr_solved(rng, n=3, m=2, horizon=40)
    model, field = pointmass_rc.model, pointmass_rc.field
    t0 = 5
    pm = solve(model, field, TimeState(np.array([8.0, 2.0, 0.0, 0.0]), t0),
               np.zeros((model.t_max - t0, 2)), max_iter=30,
               reg=RegularizerConfig(eps=pointmass_rc.train.reg_eps))
    for res, t_max in ((lqr, spec.t_max), (pm, model.t_max)):
        t_hor = res.traj.horizon
        for K in (1, 3, 10, t_hor - 1, t_hor, t_hor + 5):
            batch = kstep_targets(res, K, t_max)
            assert batch.t_max == t_max
            fields = (batch.xa, batch.v_bar, batch.v_bar_x, batch.xa_plus_k)
            for got, want in zip(fields, _kstep_reference(res, K)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), K


def test_telescoping_value_identity(pointmass_rc):
    # the full-horizon targets are the realized cost-to-go of each step
    model, field = pointmass_rc.model, pointmass_rc.field
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)
    res = solve(model, field, TimeState(np.array([8.0, 1.0, 0.0, 0.0]), 0),
                np.zeros((model.t_max, 2)), max_iter=30, reg=reg)
    v_bar = kstep_targets(res, model.t_max, model.t_max).v_bar
    for k in range(model.t_max):
        assert v_bar[k] == res.traj.step_costs[k] + v_bar[k + 1]
    assert v_bar[-1] == res.traj.step_costs[-1]


# -- calibration percentile (trainer.nearest_rank) ---------------------------------

def test_nearest_rank_constant_counts():
    assert nearest_rank([7] * 25, 99.0) == 7
    assert nearest_rank([7] * 25, 50.0) == 7


def test_nearest_rank_on_one_to_hundred():
    counts = list(range(1, 101))
    assert nearest_rank(counts, 99.0) == 99
    assert nearest_rank(counts, 50.0) == 50
    assert nearest_rank(counts, 100.0) == 100
    with pytest.raises(ValueError):
        nearest_rank(counts, 0.0)


# -- layering ----------------------------------------------------------------------

def test_solver_imports_no_training_module():
    src = str(Path(trajrl.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import trajrl.ilqr; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True,
                         timeout=120).stdout.split()
    assert "trajrl.ilqr" in out
    assert not {"trajrl.buffer", "trajrl.nets", "trajrl.trainer"} & set(out)
    # the solver forks with os alone, so no process pool adds to setup time
    assert not {"multiprocessing", "concurrent"} & set(out)
