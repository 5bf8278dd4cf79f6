import numpy as np
import pytest

from trajrl import envs, ilqr
from trajrl.envs import Region, TimeState, toy1d_cost
from trajrl.ilqr import (BatchSolveError, RegularizerConfig, SolverError,
                         calibrate_max_iter, kstep_targets, nearest_rank,
                         regularize_psd, solve, solve_batch)

from lqr_utils import random_lqr, riccati_gains, riccati_value_matrices

REG = RegularizerConfig()


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


# -- backward pass ------------------------------------------------------------------

def _open_loop(spec, field, x0, U):
    return solve(spec, field, TimeState(x0, 0), U, max_iter=1, reg=REG).traj


def _backward(spec, field, traj):
    return ilqr._backward(envs.system_for(spec), envs.cost_for(spec, field),
                          traj, REG.eps, spec.u_bound)


def _closed_loop(spec, field, traj, gains, alpha):
    """u = clamp(u_nom + alpha*k + K(x - x_nom)) around traj."""
    return ilqr._roll(envs.system_for(spec), envs.cost_for(spec, field),
                      spec.u_bound, traj.X[0], traj.t0, traj.U, traj.X,
                      gains, alpha)


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

def _toy_dp_optimum(model, field, basin_lo, basin_hi, x0, npts=3001, nu=161):
    """Brute-force minimum over a dense discretized control grid (dynamic
    programming with linear interpolation), restricted to one basin."""
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
    return float(np.interp(x0, xs, value))


def test_toy_solver_matches_per_basin_brute_force(toy_rc):
    model, field = toy_rc.model, toy_rc.field
    reg = RegularizerConfig(eps=toy_rc.train.reg_eps)
    barrier = 0.0754291585697482
    starts = np.linspace(-2.0, 2.0, 200)
    results = [solve(model, field, TimeState(np.array([x]), 0),
                     np.zeros((model.t_max, 1)), max_iter=400, reg=reg)
               for x in starts]
    worst = 0.0
    for x, res in zip(starts, results):
        in_right_basin = res.traj.X[-1, 0] > barrier
        if in_right_basin:
            oracle = _toy_dp_optimum(model, field, barrier, 2.3, x)
        else:
            oracle = _toy_dp_optimum(model, field, -2.3, barrier, x)
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
    par = solve_batch(model, field, starts, warms, max_iter=25, reg=reg,
                      workers=2)
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


# -- K-step targets -----------------------------------------------------------------

def _lqr_solved(rng, **kw):
    spec, field, mats = random_lqr(rng, **kw)
    x0 = rng.normal(0.0, 1.0, spec.n)
    res = solve(spec, field, TimeState(x0, 0), np.zeros((spec.t_max, spec.m)),
                max_iter=10, reg=REG)
    return spec, field, mats, res


def test_kstep_full_horizon_reproduces_solver_values():
    rng = np.random.default_rng(8)
    spec, field, _, res = _lqr_solved(rng, n=3, m=1, horizon=20)
    batch = kstep_targets(res, K=spec.t_max)
    assert batch.v_bar[0] == res.V_bar[0] == res.cost
    np.testing.assert_array_equal(batch.v_bar_x[0], res.V_bar_x[0])
    assert len(batch) == spec.t_max + 1


def test_kstep_one_step_values_are_step_costs():
    rng = np.random.default_rng(9)
    spec, field, _, res = _lqr_solved(rng, n=3, m=2, horizon=15)
    batch = kstep_targets(res, K=1)
    t_hor = spec.t_max
    for k in range(t_hor - 1):
        assert batch.v_bar[k] == res.traj.step_costs[k]
        assert batch.xa_plus_k[k, -1] == k + 1
    # the last one-step window reaches the horizon and picks up the terminal cost
    assert batch.v_bar[t_hor - 1] == res.V_bar[t_hor - 1]
    assert batch.v_bar[t_hor] == res.traj.step_costs[t_hor]


def test_kstep_five_step_plus_riccati_value_telescopes():
    rng = np.random.default_rng(10)
    spec, field, (A, B, Q, R, QF), res = _lqr_solved(rng, n=4, m=2, horizon=30)
    P = riccati_value_matrices(A, B, Q, R, QF, 30)
    batch = kstep_targets(res, K=5)
    for k in range(30 - 5):
        x_plus = batch.xa_plus_k[k, :-1]
        v_tail = x_plus @ P[k + 5] @ x_plus
        assert batch.v_bar[k] + v_tail == pytest.approx(res.V_bar[k], abs=1e-6)


def test_kstep_rejects_bad_lookahead():
    rng = np.random.default_rng(11)
    _, _, _, res = _lqr_solved(rng, n=2, m=1, horizon=8)
    with pytest.raises(ValueError):
        kstep_targets(res, K=0)


def _kstep_reference(res, K):
    """Targets built one window at a time, K' = min(K, T-k) steps each."""
    traj = res.traj
    t_hor = traj.horizon
    rows = []
    for k in range(t_hor + 1):
        j = k + min(K, t_hor - k)
        v_bar = res.V_bar[k] if j == t_hor else float(traj.step_costs[k:j].sum())
        u = traj.U[k] if k < t_hor else np.zeros(traj.U.shape[1])
        rows.append((np.append(traj.X[k], float(traj.t0 + k)), u, v_bar,
                     res.V_bar_x[k], np.append(traj.X[j], float(traj.t0 + j))))
    return [np.array(col) for col in zip(*rows)]


def test_kstep_matches_per_window_reference_bitwise(pointmass_rc):
    rng = np.random.default_rng(12)
    _, _, _, lqr = _lqr_solved(rng, n=3, m=2, horizon=40)
    model, field = pointmass_rc.model, pointmass_rc.field
    t0 = 5
    pm = solve(model, field, TimeState(np.array([8.0, 2.0, 0.0, 0.0]), t0),
               np.zeros((model.t_max - t0, 2)), max_iter=30,
               reg=RegularizerConfig(eps=pointmass_rc.train.reg_eps))
    for res in (lqr, pm):
        t_hor = res.traj.horizon
        for K in (1, 3, 10, t_hor - 1, t_hor, t_hor + 5):
            batch = kstep_targets(res, K)
            fields = (batch.xa, batch.u, batch.v_bar, batch.v_bar_x,
                      batch.xa_plus_k)
            for got, want in zip(fields, _kstep_reference(res, K)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), K


def test_telescoping_value_identity(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)
    res = solve(model, field, TimeState(np.array([8.0, 1.0, 0.0, 0.0]), 0),
                np.zeros((model.t_max, 2)), max_iter=30, reg=reg)
    for k in range(model.t_max):
        assert res.V_bar[k] == res.traj.step_costs[k] + res.V_bar[k + 1]
    assert res.V_bar[-1] == res.traj.step_costs[-1]


# -- calibration -----------------------------------------------------------------

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


def test_calibrate_matches_sort_oracle(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    reg = RegularizerConfig(eps=pointmass_rc.train.reg_eps)
    value, counts = calibrate_max_iter(model, field, probe_count=10, cap=60,
                                       percentile=99.0, rng_seed=5, reg=reg,
                                       return_counts=True)
    ordered = sorted(counts)
    assert value == ordered[int(np.ceil(0.99 * len(ordered))) - 1]
    value50 = calibrate_max_iter(model, field, probe_count=10, cap=60,
                                 percentile=50.0, rng_seed=5, reg=reg)
    assert value50 == ordered[int(np.ceil(0.5 * len(ordered))) - 1]
