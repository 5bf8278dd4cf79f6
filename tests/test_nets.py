import json

import numpy as np
import pytest

from trajrl import envs, ilqr, nets
from trajrl.buffer import SampleBatch
from trajrl.envs import TimeState
from trajrl.nets import (AdamState, Mlp, actor_loss, actor_rollout, adam_step,
                         critic_loss, init_mlp, load_checkpoint, mlp_forward,
                         polyak, save_checkpoint, std_critic_loss,
                         value_and_state_grad)

from lqr_utils import random_lqr


def _rand_batch(rng, n, bsz, t_max=50):
    xa = rng.normal(0.0, 1.0, (bsz, n + 1))
    xa[:, -1] = rng.integers(0, t_max, bsz)
    xk = rng.normal(0.0, 1.0, (bsz, n + 1))
    xk[:, -1] = rng.integers(1, t_max + 1, bsz)
    return SampleBatch(xa, rng.normal(0.0, 1.0, bsz),
                       rng.normal(0.0, 1.0, (bsz, n)), xk, t_max=t_max)


def _layer_arrays(mlp):
    return [p for wb in zip(mlp.weights, mlp.biases) for p in wb]


def _fd_grads(loss_fn, mlp, picks=25, h=1e-6, rng=None):
    """Finite differences at a random subset of each layer array's entries:
    (indices into the flat parameter vector, derivatives there)."""
    rng = rng or np.random.default_rng(0)
    theta = mlp.flat_params()
    sel, start = [], 0
    for p in _layer_arrays(mlp):
        sel.append(start + rng.choice(p.size, size=min(picks, p.size), replace=False))
        start += p.size
    sel = np.concatenate(sel)
    fd = np.empty(sel.size)
    for k, j in enumerate(sel):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        fd[k] = (loss_fn(mlp.with_params(tp)) - loss_fn(mlp.with_params(tm))) / (2 * h)
    return sel, fd


def _assert_grads_close(grads, fd, rel=1e-4):
    sel, f = fd
    scale = max(1e-8, np.abs(f).max())
    assert np.abs(grads[sel] - f).max() / scale < rel


def _with_zero_output_layer(mlp, bias_too=False):
    """Copy of mlp with its output weights (and optionally bias) zeroed."""
    net = mlp.with_params(mlp.flat_params().copy())
    net.weights[-1][...] = 0.0
    if bias_too:
        net.biases[-1][...] = 0.0
    return net


# -- forward / input gradient ----------------------------------------------------

def test_forward_zero_weights_returns_bias():
    net = Mlp(weights=(np.zeros((3, 4)),), biases=(np.array([1.0, -2.0, 0.5]),))
    np.testing.assert_array_equal(mlp_forward(net, np.ones(4)), [1.0, -2.0, 0.5])


def test_forward_single_linear_layer():
    rng = np.random.default_rng(1)
    w = rng.normal(0, 1, (3, 4))
    net = Mlp(weights=(w,), biases=(np.zeros(3),))
    x = rng.normal(0, 1, 4)
    np.testing.assert_allclose(mlp_forward(net, x), w @ x, atol=1e-14)
    for row in w:
        single = Mlp(weights=(row[None, :],), biases=(np.zeros(1),))
        np.testing.assert_allclose(value_and_state_grad(single, x[None, :])[1],
                                   row[None, :], atol=1e-14)


def test_forward_finite_on_random_inputs():
    rng = np.random.default_rng(2)
    net = init_mlp([5, 64, 64, 64, 1], rng)
    xs = rng.uniform(-10.0, 10.0, (1000, 5))
    assert np.all(np.isfinite(mlp_forward(net, xs)))


def test_forward_rejects_dim_mismatch():
    net = init_mlp([4, 8, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        mlp_forward(net, np.ones(5))


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = init_mlp([4, 12, 8, 1], rng, in_center=np.zeros(4),
                   in_half=np.array([1.0, 2.0, 0.5, 3.0]))
    xs = rng.normal(0.0, 1.0, (3, 4))
    values, grads = value_and_state_grad(net, xs)
    np.testing.assert_array_equal(values, mlp_forward(net, xs)[:, 0])
    h = 1e-6
    for x, grad in zip(xs, grads):
        fd = np.array([(mlp_forward(net, x + h * e) - mlp_forward(net, x - h * e))[0]
                       / (2 * h) for e in np.eye(4)])
        assert np.abs(grad - fd).max() / max(1e-8, np.abs(fd).max()) < 1e-5


def test_input_gradient_zero_for_constant_net():
    rng = np.random.default_rng(4)
    net = _with_zero_output_layer(init_mlp([4, 8, 1], rng))
    np.testing.assert_array_equal(value_and_state_grad(net, np.ones((1, 4)))[1],
                                  np.zeros((1, 4)))


# -- critic loss --------------------------------------------------------------------

def test_critic_loss_zero_for_perfect_critic():
    rng = np.random.default_rng(5)
    critic = init_mlp([4, 10, 1], rng)
    xa = rng.normal(0.0, 1.0, (6, 4))
    xa[:, -1] = 3.0
    v, g = nets.value_and_state_grad(critic, xa)
    batch = SampleBatch(xa, v, g[:, :-1], xa, t_max=50)
    loss, grads = critic_loss(critic, None, batch, k_s=0.7)
    assert loss < 1e-24
    assert np.abs(grads).max() < 1e-11


def test_critic_loss_ks_zero_is_value_mse():
    rng = np.random.default_rng(6)
    critic = init_mlp([4, 16, 1], rng)
    batch = _rand_batch(rng, 3, 32)
    loss, _ = critic_loss(critic, None, batch, k_s=0.0)
    v = mlp_forward(critic, batch.xa)[:, 0]
    assert loss == pytest.approx(((batch.v_bar - v) ** 2).mean(), abs=1e-14)


def test_critic_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    critic = init_mlp([4, 10, 8, 1], rng,
                      in_center=np.zeros(4), in_half=np.array([2.0, 1.0, 3.0, 50.0]))
    target = init_mlp([4, 10, 8, 1], rng)
    batch = _rand_batch(rng, 3, 12)
    loss, grads = critic_loss(critic, target, batch, k_s=0.5)
    fd = _fd_grads(lambda m: critic_loss(m, target, batch, 0.5)[0],
                   critic, rng=rng)
    _assert_grads_close(grads, fd)


def test_critic_loss_bootstrap_gated_at_horizon():
    rng = np.random.default_rng(8)
    critic = init_mlp([3, 8, 1], rng)
    target = init_mlp([3, 8, 1], rng)
    t_max = 10
    xa = rng.normal(0.0, 1.0, (4, 3))
    xk = rng.normal(0.0, 1.0, (4, 3))
    xk[:, -1] = [10, 9, 10, 5]            # two window ends exactly at horizon
    batch = SampleBatch(xa, np.zeros(4), np.zeros((4, 2)), xk, t_max=t_max)
    v_target = mlp_forward(target, xk)[:, 0]
    v = mlp_forward(critic, xa)[:, 0]
    expect_y = np.where(xk[:, -1] < t_max, v_target, 0.0)
    loss, _ = critic_loss(critic, target, batch, k_s=0.0)
    assert loss == pytest.approx(((expect_y - v) ** 2).mean(), abs=1e-12)


def test_critic_loss_rejects_empty_batch():
    critic = init_mlp([3, 8, 1], np.random.default_rng(0))
    empty = SampleBatch(np.zeros((0, 3)), np.zeros(0), np.zeros((0, 2)),
                        np.zeros((0, 3)), t_max=5)
    with pytest.raises(ValueError):
        critic_loss(critic, None, empty, 1.0)


# -- actor loss -------------------------------------------------------------------

def _pm_setup(rng):
    model = envs.default_model("pointmass")
    field = envs.CostField(
        target=(-7.0, 0.0),
        obstacles=(envs.Ellipse((0.0, 3.5), (1.8, 3.2)),
                   envs.Ellipse((0.0, -3.5), (1.8, 3.2)),
                   envs.Ellipse((1.2, 0.0), (2.2, 1.4))),
        obstacle_weight=10.0, target_reward_weight=15.0,
        target_reward_radius=2.0, control_weight=0.005, distance_weight=0.02)
    actor = init_mlp([5, 10, 8, 2], rng, head="tanh", out_scale=model.u_bound)
    critic = init_mlp([5, 10, 1], rng)
    return model, field, actor, critic


def test_actor_loss_zero_grads_when_nothing_depends_on_u():
    rng = np.random.default_rng(9)
    model, field, actor, critic = _pm_setup(rng)
    free_field = envs.CostField(target=field.target, obstacles=field.obstacles,
                                obstacle_weight=10.0, target_reward_weight=15.0,
                                target_reward_radius=2.0, control_weight=0.0,
                                distance_weight=0.02)
    const_critic = _with_zero_output_layer(critic)
    xa = np.append(rng.uniform(-5, 5, 4), 3.0)[None, :]
    loss, grads, skipped = actor_loss(actor, const_critic, model, free_field,
                                      xa)
    assert skipped == 0
    assert np.abs(grads).max() < 1e-14


def test_actor_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    model, field, actor, critic = _pm_setup(rng)
    xa = np.column_stack([rng.uniform(-5.0, 5.0, (4, 4)), [0, 7, 22, 59]])
    loss, grads, _ = actor_loss(actor, critic, model, field, xa)
    fd = _fd_grads(lambda m: actor_loss(m, critic, model, field, xa)[0],
                   actor, rng=rng)
    _assert_grads_close(grads, fd)


def test_actor_loss_skips_horizon_states_with_count():
    rng = np.random.default_rng(11)
    model, field, actor, critic = _pm_setup(rng)
    xa = np.column_stack([rng.uniform(-5, 5, (3, 4)), [0, 60, 60]])
    _, _, skipped = actor_loss(actor, critic, model, field, xa)
    assert skipped == 2
    with pytest.raises(ValueError):
        actor_loss(actor, critic, model, field, np.append(np.zeros(4), 60.0)[None, :])


@pytest.mark.parametrize("rc_name", ["pointmass_rc", "manipulator_rc", "toy_rc"])
def test_actor_loss_gradients_match_stage_derivs_bitwise(request, rc_name,
                                                         monkeypatch):
    # actor_loss takes l_u from cost.effort_grad; its gradients keep the
    # bits they had with l_u taken from stage_derivs
    rc = request.getfixturevalue(rc_name)
    model, field = rc.model, rc.field
    rng = np.random.default_rng(41)
    actor = _big_actor(model, 41)
    critic = init_mlp([model.n + 1, 64, 64, 64, 1], rng)
    starts = envs.sample_initial_states(model, 128, 42, envs.Region.WORKSPACE)
    xa = np.column_stack([np.stack([s.x for s in starts]),
                          rng.integers(0, model.t_max, len(starts))])
    loss, grads, _ = actor_loss(actor, critic, model, field, xa)
    cost = envs.cost_for(model, field)

    class FromStageDerivs:
        def stage(self, x, u):
            self.lu = cost.stage_derivs(x, u)[1]
            return cost.stage(x, u)

        def effort_grad(self, u):
            return self.lu

    monkeypatch.setattr(nets, "cost_for", lambda *_: FromStageDerivs())
    old_loss, old_grads, _ = actor_loss(actor, critic, model, field, xa)
    _assert_bitwise(grads, old_grads)
    assert loss == pytest.approx(old_loss, rel=1e-12, abs=0.0)


def test_actor_training_recovers_analytic_one_step_action():
    # linear critic on an LQR instance: the Q-minimizing action has the
    # closed form u* = -(1/2) R^-1 B^T w_x, independent of the state
    rng = np.random.default_rng(12)
    spec, field, (A, B, Q, R, QF) = random_lqr(rng, n=3, m=2, horizon=20)
    spec = envs.ModelSpec(**{**spec.__dict__, "u_max": (5.0, 5.0)})
    w = rng.normal(0.0, 0.5, 4)            # state weights + time weight
    critic = Mlp(weights=(w[None, :],), biases=(np.zeros(1),))
    u_star = -0.5 * np.linalg.solve(R, B.T @ w[:-1])
    assert np.all(np.abs(u_star) < 4.0)

    actor = init_mlp([4, 16, 2], rng, head="tanh", out_scale=spec.u_bound)
    xa = np.append(rng.normal(0.0, 1.0, 3), 4.0)[None, :]
    opt = AdamState.init(actor.flat_params(), lr=5e-3)
    for _ in range(4000):
        _, grads, _ = actor_loss(actor, critic, spec, field, xa)
        params, opt = adam_step(actor.flat_params(), opt, grads)
        actor = actor.with_params(params)
    mu = mlp_forward(actor, xa[0])
    assert np.abs(mu - u_star).max() < 1e-4


# -- std-critic loss ------------------------------------------------------------------

def _const_sigma_net(raw_out, sigma_min=1e-3):
    net = Mlp(weights=(np.zeros((1, 4)),), biases=(np.array([raw_out]),),
              head="std", sigma_min=sigma_min)
    return net


def test_std_loss_stationary_at_absolute_error():
    rng = np.random.default_rng(13)
    critic = init_mlp([4, 8, 1], rng)
    xa = rng.normal(0.0, 1.0, (8, 4))
    err = 0.7
    v = mlp_forward(critic, xa)[:, 0]
    batch = SampleBatch(xa, v + err, np.zeros((8, 3)), xa, t_max=50)

    def loss_at_sigma(sigma):
        raw = np.log(np.expm1(sigma - 1e-3))   # invert softplus + floor
        net = _const_sigma_net(raw)
        return std_critic_loss(net, batch.v_bar - v, xa)[0]

    at_err = loss_at_sigma(err)
    assert at_err < loss_at_sigma(0.8 * err)
    assert at_err < loss_at_sigma(1.25 * err)
    assert at_err == pytest.approx(np.log(err) + 0.5, abs=1e-9)


def test_std_loss_zero_error_at_floor():
    rng = np.random.default_rng(14)
    critic = init_mlp([4, 8, 1], rng)
    xa = rng.normal(0.0, 1.0, (5, 4))
    v = mlp_forward(critic, xa)[:, 0]
    batch = SampleBatch(xa, v, np.zeros((5, 3)), xa, t_max=9)
    net = _const_sigma_net(-40.0)          # softplus(-40) ~ 0 -> sigma ~ floor
    loss, _ = std_critic_loss(net, batch.v_bar - v, xa)
    assert loss == pytest.approx(np.log(1e-3), abs=1e-9)


def test_std_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    critic = init_mlp([4, 8, 1], rng)
    std_net = init_mlp([4, 10, 6, 1], rng, head="std")
    batch = _rand_batch(rng, 3, 10)
    err = batch.v_bar - mlp_forward(critic, batch.xa)[:, 0]
    _, grads = std_critic_loss(std_net, err, batch.xa)
    fd = _fd_grads(lambda m: std_critic_loss(m, err, batch.xa)[0], std_net,
                   rng=rng)
    _assert_grads_close(grads, fd)


def test_std_outputs_respect_floor():
    rng = np.random.default_rng(16)
    net = init_mlp([4, 16, 1], rng, head="std", sigma_min=1e-3)
    xs = rng.uniform(-50.0, 50.0, (500, 4))
    assert np.all(mlp_forward(net, xs) >= 1e-3)


def test_actor_outputs_respect_bounds():
    rng = np.random.default_rng(17)
    net = init_mlp([4, 16, 3], rng, head="tanh",
                   out_scale=np.array([2.0, 0.5, 7.0]))
    xs = rng.uniform(-100.0, 100.0, (500, 4))
    out = mlp_forward(net, xs)
    assert np.all(np.abs(out) <= np.array([2.0, 0.5, 7.0]))


# -- adam ------------------------------------------------------------------------

def test_adam_zero_grads_no_change():
    rng = np.random.default_rng(18)
    params = rng.normal(0, 1, 9)
    state = AdamState.init(params, lr=1e-2)
    new_params, new_state = adam_step(params, state, np.zeros(9))
    np.testing.assert_array_equal(params, new_params)
    assert new_state.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    params = np.zeros(4)
    state = AdamState.init(params, lr=3e-3)
    g = np.array([0.5, -2.0, 10.0, -0.01])
    new_params, _ = adam_step(params, state, g)
    np.testing.assert_allclose(np.abs(new_params), 3e-3, rtol=1e-5)
    assert np.all(np.sign(new_params) == -np.sign(g))


def test_adam_descends_quadratic():
    params = np.array([4.0, -3.0])
    state = AdamState.init(params, lr=5e-2)
    target = np.array([1.0, 1.0])
    for _ in range(100):
        g = 2.0 * (params - target)
        params, state = adam_step(params, state, g)
    assert np.linalg.norm(params - target) < np.linalg.norm([3.0, -4.0])


def test_adam_rejects_shape_mismatch():
    params = np.zeros(4)
    state = AdamState.init(params)
    with pytest.raises(ValueError):
        adam_step(params, state, np.zeros(3))


# -- rollout / polyak / checkpoints ------------------------------------------------

def test_zero_actor_rollout_equals_naive_warm_start(pointmass_rc):
    rng = np.random.default_rng(19)
    model = pointmass_rc.model
    actor = _with_zero_output_layer(
        init_mlp([5, 8, 2], rng, head="tanh", out_scale=model.u_bound), bias_too=True)
    start = TimeState(np.array([3.0, -2.0, 1.0, 0.5]), 0)
    traj = actor_rollout(actor, model, pointmass_rc.field, [start])[0]
    np.testing.assert_array_equal(traj.U, np.zeros((model.t_max, 2)))
    system = envs.system_for(model)
    x = start.x
    for k in range(model.t_max):
        x = system.step_x(x, np.zeros(2))
        np.testing.assert_array_equal(traj.X[k + 1], x)


def test_actor_rollout_is_dynamically_feasible(dubins_rc):
    rng = np.random.default_rng(20)
    model = dubins_rc.model
    actor = init_mlp([6, 12, 2], rng, head="tanh", out_scale=model.u_bound)
    start = TimeState(rng.uniform(-3, 3, 5), 10)
    traj = actor_rollout(actor, model, dubins_rc.field, [start])[0]
    system = envs.system_for(model)
    assert traj.t0 == 10 and traj.horizon == model.t_max - 10
    for k in range(traj.horizon):
        np.testing.assert_allclose(traj.X[k + 1],
                                   system.step_x(traj.X[k], traj.U[k]),
                                   atol=1e-12)
    assert np.all(np.abs(traj.U) <= model.u_bound)


def _per_start_rollout_reference(actor, model, x0):
    """One start stepped alone with a single-input forward pass per step: the
    loop actor_rollout must reproduce bit for bit."""
    system = envs.system_for(model)
    t_hor = model.t_max - x0.t
    X = np.empty((t_hor + 1, model.n))
    U = np.empty((t_hor, model.m))
    X[0] = x0.x
    for k in range(t_hor):
        U[k] = mlp_forward(actor, np.concatenate([X[k], [float(x0.t + k)]]))
        X[k + 1] = system.step_x(X[k], U[k])
    return X, U


def _big_actor(model, seed):
    """A 64x3 ELU actor with its parameters scaled x3, so its controls vary."""
    actor = init_mlp([model.n + 1, 64, 64, 64, model.m], np.random.default_rng(seed),
                     head="tanh", out_scale=model.u_bound)
    return actor.with_params(3.0 * actor.flat_params())


@pytest.mark.parametrize("rc_name", ["toy_rc", "pointmass_rc", "dubins_rc",
                                     "manipulator_rc"])
def test_actor_rollout_matches_per_start_reference_bitwise(request, rc_name):
    rc = request.getfixturevalue(rc_name)
    model = rc.model
    actor = _big_actor(model, 31)
    times = (0, 7, model.t_max - 1)
    starts = [TimeState(s.x, times[i % 3]) for i, s in enumerate(
        envs.sample_initial_states(model, 12, 5, envs.Region.WORKSPACE))]
    trajs = actor_rollout(actor, model, rc.field, starts)
    cost = envs.cost_for(model, rc.field)
    finite = 0
    for start, traj in zip(starts, trajs):
        X, U = _per_start_rollout_reference(actor, model, start)
        assert traj.t0 == start.t
        fin = np.isfinite(X).all(axis=1)
        if fin.all():
            finite += 1
            _assert_bitwise(traj.X, X)
            _assert_bitwise(traj.U, U)
            _assert_bitwise(traj.step_costs,
                            ilqr._cost_trajectory(cost, X[:, None], U[:, None])[:, 0])
        else:
            # the same bits up to the first state that overflowed; the row is
            # then not stepped again and costs inf
            k = int(np.argmin(fin))
            _assert_bitwise(traj.X[:k + 1], X[:k + 1])
            _assert_bitwise(traj.U[:k], U[:k])
            assert np.isnan(traj.X[k + 1:]).all()
            assert np.isposinf(traj.step_costs).all()
    assert finite >= 8


def test_actor_rollout_contains_non_finite_rows(manipulator_rc, monkeypatch):
    model, field = manipulator_rc.model, manipulator_rc.field
    actor = init_mlp([model.n + 1, 64, 64, 64, model.m], np.random.default_rng(32),
                     head="tanh", out_scale=model.u_bound)
    starts = envs.sample_initial_states(model, 4, 9, envs.Region.WORKSPACE)
    x_bad = starts[1].x.copy()
    x_bad[4] = 1e200                     # a joint velocity
    starts[1] = TimeState(x_bad, 0)
    system_cls = type(envs.system_for(model))
    step_x = system_cls.step_x

    def finite_only(self, x, u):
        assert np.isfinite(x).all() and np.isfinite(u).all()
        return step_x(self, x, u)

    monkeypatch.setattr(system_cls, "step_x", finite_only)
    trajs = actor_rollout(actor, model, field, starts)
    assert not np.isfinite(trajs[1].X).all()
    assert np.isposinf(trajs[1].step_costs).all()
    for i in (0, 2, 3):
        alone = actor_rollout(actor, model, field, [starts[i]])[0]
        assert np.isfinite(alone.cost)
        for name in ("X", "U", "step_costs"):
            _assert_bitwise(getattr(trajs[i], name), getattr(alone, name))


def test_polyak_moves_target_toward_online():
    rng = np.random.default_rng(21)
    a = init_mlp([3, 4, 1], rng)
    b = init_mlp([3, 4, 1], rng)
    mixed = polyak(a, b, tau=0.25)
    np.testing.assert_allclose(mixed.flat_params(),
                               0.75 * a.flat_params() + 0.25 * b.flat_params(),
                               atol=1e-15)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(22)
    net = init_mlp([5, 12, 3], rng, head="tanh",
                   out_scale=np.array([1.0, 2.0, 3.0]),
                   in_center=np.arange(5.0), in_half=np.ones(5) * 2.0)
    path = tmp_path / "actor.json"
    save_checkpoint(path, net, "actor", "pointmass", "cafebabe")
    loaded, meta = load_checkpoint(path)
    assert meta == {"kind": "actor", "model": "pointmass",
                    "config_hash": "cafebabe"}
    xs = rng.normal(0.0, 1.0, (20, 5))
    np.testing.assert_array_equal(mlp_forward(net, xs),
                                  mlp_forward(loaded, xs))


def test_failed_checkpoint_save_keeps_the_previous_one(tmp_path, monkeypatch):
    # a save that dies partway, as on an interrupt or a full disk, leaves the
    # earlier checkpoint loadable bit for bit and no temp file behind
    rng = np.random.default_rng(25)
    net = init_mlp([3, 8, 2], rng)
    path = tmp_path / "actor.json"
    save_checkpoint(path, net, "actor", "toy1d", "cafebabe")
    saved = path.read_bytes()

    def dump_a_fragment(doc, fh):
        fh.write('{"kind": ')
        raise OSError("No space left on device")

    monkeypatch.setattr(nets.json, "dump", dump_a_fragment)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, init_mlp([3, 8, 2], rng), "actor", "toy1d",
                        "cafebabe")
    monkeypatch.undo()
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["actor.json"]
    loaded, _ = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.flat_params(), net.flat_params())


def test_update_determinism_from_seed():
    def run():
        rng = np.random.default_rng(33)
        critic = init_mlp([4, 8, 1], rng)
        batch = _rand_batch(np.random.default_rng(4), 3, 16)
        opt = AdamState.init(critic.flat_params(), lr=1e-3)
        for _ in range(10):
            _, grads = critic_loss(critic, None, batch, 1.0)
            params, opt = adam_step(critic.flat_params(), opt, grads)
            critic = critic.with_params(params)
        return critic

    a, b = run(), run()
    np.testing.assert_array_equal(a.flat_params(), b.flat_params())


def test_flat_params_layout_and_views():
    net = init_mlp([3, 5, 2], np.random.default_rng(23))
    theta = net.flat_params()
    np.testing.assert_array_equal(
        theta, np.concatenate([p.ravel() for p in _layer_arrays(net)]))
    assert all(np.shares_memory(p, theta) for p in _layer_arrays(net))
    moved = net.with_params(theta + 1.0)
    np.testing.assert_array_equal(moved.weights[1], net.weights[1] + 1.0)
    with pytest.raises(ValueError):
        net.with_params(theta[:-1])


@pytest.mark.parametrize("edit, layer", [
    (lambda d: d["biases"].__setitem__(0, [0.5]), 0),     # would broadcast
    (lambda d: d["biases"].pop(), 1),                     # zip would drop it
    (lambda d: d["weights"][1].append(0.0), 1),
    (lambda d: (d["weights"].append([1.0]), d["biases"].append([0.0])), 2),
], ids=["short-bias", "missing-bias", "long-weights", "extra-layer"])
def test_load_checkpoint_rejects_layers_that_do_not_fit_layer_sizes(tmp_path, edit,
                                                                     layer):
    path = tmp_path / "critic.json"
    save_checkpoint(path, init_mlp([3, 8, 1], np.random.default_rng(24)), "critic",
                    "toy1d", "cafebabe")
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"layer {layer}:"):
        load_checkpoint(path)


# -- bit-identity of the flat-vector path against per-array references ------------

def _ref_elu(z):
    return np.where(z > 0.0, z, np.expm1(np.minimum(z, 0.0)))


def _ref_elu_d1(z):
    return np.where(z > 0.0, 1.0, np.exp(np.minimum(z, 0.0)))


def _ref_elu_d2(z):
    return np.where(z > 0.0, 0.0, np.exp(np.minimum(z, 0.0)))


def _ref_tanh_d1(z):
    return 1.0 - np.tanh(z) ** 2


def _ref_tanh_d2(z):
    t = np.tanh(z)
    return -2.0 * t * (1.0 - t**2)


_REF_DERIVS = {"elu": (_ref_elu_d1, _ref_elu_d2),
               "tanh": (_ref_tanh_d1, _ref_tanh_d2)}


def _assert_bitwise(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_activation_derivative_pairs_match_separate_formulas_bitwise():
    z = np.random.default_rng(25).normal(0.0, 3.0, 5000)
    z[:8] = [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, np.inf, -np.inf]
    _assert_bitwise(nets._elu(z), _ref_elu(z))
    for name, (d1, d2) in _REF_DERIVS.items():
        got1, got2 = nets._ACTIVATIONS[name][1](z)
        _assert_bitwise(got1, d1(z))
        _assert_bitwise(got2, d2(z))


def _ref_critic_loss(critic, critic_target, batch, k_s, gamma_bootstrap):
    """critic_loss on per-layer gradient arrays, recomputing the activation
    derivatives at every use; returns the gradient in the flat layout."""
    d1, d2 = _REF_DERIVS[critic.activation]
    bsz, n, ws = len(batch), batch.n, critic.weights
    y = batch.v_bar.copy()
    if gamma_bootstrap and critic_target is not None:
        v_next = mlp_forward(critic_target, batch.xa_plus_k)[:, 0]
        y = y + np.where(batch.xa_plus_k[:, -1] < batch.t_max, v_next, 0.0)
    zs, a, o = nets._forward_caches(critic, batch.xa)
    last = len(ws) - 1
    s_list = [None] * len(ws)
    s_list[last] = np.broadcast_to(ws[last][0], (bsz, ws[last].shape[1]))
    for i in range(last - 1, -1, -1):
        s_list[i] = (d1(zs[i]) * s_list[i + 1]) @ ws[i]
    half = critic.in_half if critic.in_center is not None else np.ones(critic.in_dim)
    e_v = y - o[:, 0]
    e_g = batch.v_bar_x - (s_list[0] / half)[:, :n]
    loss = float((e_v**2).mean() + k_s * (e_g**2).sum(axis=1).mean())
    gw = [np.zeros_like(w) for w in ws]
    gb = [np.zeros_like(b) for b in critic.biases]
    u = np.zeros((bsz, critic.in_dim))
    u[:, :n] = (-2.0 * k_s / bsz) * e_g / half[:n]
    zeta = []
    for i in range(last):
        rbar = u @ ws[i].T
        gw[i] += (d1(zs[i]) * s_list[i + 1]).T @ u
        zeta.append(d2(zs[i]) * s_list[i + 1] * rbar)
        u = d1(zs[i]) * rbar
    gw[last] += u.sum(axis=0, keepdims=True)
    delta = (-2.0 / bsz) * e_v[:, None]
    gw[last] += delta.T @ a[last]
    gb[last] += delta.sum(axis=0)
    abar = delta @ ws[last]
    for i in range(last - 1, -1, -1):
        zbar = d1(zs[i]) * abar + zeta[i]
        gw[i] += zbar.T @ a[i]
        gb[i] += zbar.sum(axis=0)
        abar = zbar @ ws[i]
    return loss, np.concatenate([g.ravel() for wb in zip(gw, gb) for g in wb])


@pytest.mark.parametrize("activation", ["elu", "tanh"])
@pytest.mark.parametrize("hidden", [(), (10,), (16, 12, 8)])
def test_critic_loss_matches_per_use_derivative_reference_bitwise(activation, hidden):
    rng = np.random.default_rng(26)
    sizes = [4, *hidden, 1]
    critic = init_mlp(sizes, rng, activation, in_center=np.zeros(4),
                      in_half=np.array([2.0, 1.0, 3.0, 50.0]))
    critic = critic.with_params(critic.flat_params() * 3.0)    # reach both ELU branches
    target = init_mlp(sizes, rng, activation)
    batch = _rand_batch(rng, 3, 64)
    loss, grads = critic_loss(critic, target, batch, 0.7)
    ref_loss, ref_grads = _ref_critic_loss(critic, target, batch, 0.7, True)
    assert loss == ref_loss
    _assert_bitwise(grads, ref_grads)


def _ref_adam_step(params, m, v, step, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam over a list of per-layer arrays."""
    t = step + 1
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    new_p, new_m, new_v = [], [], []
    for p, g, mi, vi in zip(params, grads, m, v):
        mi = beta1 * mi + (1.0 - beta1) * g
        vi = beta2 * vi + (1.0 - beta2) * (g * g)
        new_p.append(p - lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps))
        new_m.append(mi)
        new_v.append(vi)
    return new_p, new_m, new_v


def test_flat_adam_and_polyak_match_per_array_reference_bitwise():
    rng = np.random.default_rng(27)
    net, target = init_mlp([3, 16, 8, 2], rng), init_mlp([3, 16, 8, 2], rng)
    opt = AdamState.init(net.flat_params(), lr=1e-2)
    ref_p, ref_t = _layer_arrays(net), _layer_arrays(target)
    ref_m = [np.zeros_like(p) for p in ref_p]
    ref_v = [np.zeros_like(p) for p in ref_p]
    flat = lambda arrays: np.concatenate([p.ravel() for p in arrays])  # noqa: E731
    for step in range(6):
        g = rng.normal(0.0, 10.0 ** rng.uniform(-4, 1), net.flat_params().shape)
        ref_g = _layer_arrays(net.with_params(g))
        params, opt = adam_step(net.flat_params(), opt, g)
        net = net.with_params(params)
        target = polyak(target, net, 0.05)
        ref_p, ref_m, ref_v = _ref_adam_step(ref_p, ref_m, ref_v, step, ref_g, 1e-2)
        ref_t = [(1.0 - 0.05) * pt + 0.05 * po for pt, po in zip(ref_t, ref_p)]
        _assert_bitwise(net.flat_params(), flat(ref_p))
        _assert_bitwise(opt.m, flat(ref_m))
        _assert_bitwise(opt.v, flat(ref_v))
        _assert_bitwise(target.flat_params(), flat(ref_t))
