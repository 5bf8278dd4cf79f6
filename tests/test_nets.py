import numpy as np
import pytest

from trajrl import envs, nets
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
    return SampleBatch(xa, rng.normal(0.0, 1.0, (bsz, 2)),
                       rng.normal(0.0, 1.0, bsz),
                       rng.normal(0.0, 1.0, (bsz, n)), xk, t_max=t_max)


def _fd_grads(loss_fn, mlp, picks=25, h=1e-6, rng=None):
    """Finite differences at a random subset of parameter entries."""
    rng = rng or np.random.default_rng(0)
    params = mlp.flat_params()
    out = []
    for idx, p in enumerate(params):
        flat = np.zeros(p.size)
        sel = rng.choice(p.size, size=min(picks, p.size), replace=False)
        for j in sel:
            pp = [q.copy() for q in params]
            pp[idx].reshape(-1)[j] += h
            lp = loss_fn(mlp.with_params(pp))
            pp = [q.copy() for q in params]
            pp[idx].reshape(-1)[j] -= h
            lm = loss_fn(mlp.with_params(pp))
            flat[j] = (lp - lm) / (2 * h)
        out.append((sel, flat.reshape(p.shape)))
    return out


def _assert_grads_close(grads, fd, rel=1e-4):
    scale = max(1e-8, max(np.abs(f[1]).max() for f in fd))
    for g, (sel, f) in zip(grads, fd):
        diff = np.abs(g.reshape(-1)[sel] - f.reshape(-1)[sel]).max()
        assert diff / scale < rel


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
    net = init_mlp([4, 8, 1], rng)
    zeroed = list(net.flat_params())
    zeroed[-2] = np.zeros_like(zeroed[-2])     # output weights
    net = net.with_params(zeroed)
    np.testing.assert_array_equal(value_and_state_grad(net, np.ones((1, 4)))[1],
                                  np.zeros((1, 4)))


# -- critic loss --------------------------------------------------------------------

def test_critic_loss_zero_for_perfect_critic():
    rng = np.random.default_rng(5)
    critic = init_mlp([4, 10, 1], rng)
    xa = rng.normal(0.0, 1.0, (6, 4))
    xa[:, -1] = 3.0
    v, g = nets.value_and_state_grad(critic, xa)
    batch = SampleBatch(xa, np.zeros((6, 1)), v, g[:, :-1], xa, t_max=50)
    loss, grads = critic_loss(critic, None, batch, k_s=0.7,
                              gamma_bootstrap=False)
    assert loss < 1e-24
    assert max(np.abs(g).max() for g in grads) < 1e-11


def test_critic_loss_ks_zero_is_value_mse():
    rng = np.random.default_rng(6)
    critic = init_mlp([4, 16, 1], rng)
    batch = _rand_batch(rng, 3, 32)
    loss, _ = critic_loss(critic, None, batch, k_s=0.0, gamma_bootstrap=False)
    v = mlp_forward(critic, batch.xa)[:, 0]
    assert loss == pytest.approx(((batch.v_bar - v) ** 2).mean(), abs=1e-14)


def test_critic_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    critic = init_mlp([4, 10, 8, 1], rng,
                      in_center=np.zeros(4), in_half=np.array([2.0, 1.0, 3.0, 50.0]))
    target = init_mlp([4, 10, 8, 1], rng)
    batch = _rand_batch(rng, 3, 12)
    loss, grads = critic_loss(critic, target, batch, k_s=0.5,
                              gamma_bootstrap=True)
    fd = _fd_grads(lambda m: critic_loss(m, target, batch, 0.5, True)[0],
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
    batch = SampleBatch(xa, np.zeros((4, 1)), np.zeros(4),
                        np.zeros((4, 2)), xk, t_max=t_max)
    v_target = mlp_forward(target, xk)[:, 0]
    v = mlp_forward(critic, xa)[:, 0]
    expect_y = np.where(xk[:, -1] < t_max, v_target, 0.0)
    loss, _ = critic_loss(critic, target, batch, k_s=0.0, gamma_bootstrap=True)
    assert loss == pytest.approx(((expect_y - v) ** 2).mean(), abs=1e-12)


def test_critic_loss_rejects_empty_batch():
    critic = init_mlp([3, 8, 1], np.random.default_rng(0))
    empty = SampleBatch(np.zeros((0, 3)), np.zeros((0, 1)), np.zeros(0),
                        np.zeros((0, 2)), np.zeros((0, 3)), t_max=5)
    with pytest.raises(ValueError):
        critic_loss(critic, None, empty, 1.0, False)


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
    const_params = list(critic.flat_params())
    const_params[-2] = np.zeros_like(const_params[-2])
    const_critic = critic.with_params(const_params)
    xa = np.append(rng.uniform(-5, 5, 4), 3.0)[None, :]
    loss, grads, skipped = actor_loss(actor, const_critic, model, free_field,
                                      xa)
    assert skipped == 0
    assert max(np.abs(g).max() for g in grads) < 1e-14


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
    batch = SampleBatch(xa, np.zeros((8, 1)), v + err, np.zeros((8, 3)), xa,
                        t_max=50)

    def loss_at_sigma(sigma):
        raw = np.log(np.expm1(sigma - 1e-3))   # invert softplus + floor
        net = _const_sigma_net(raw)
        return std_critic_loss(net, critic, batch)[0]

    at_err = loss_at_sigma(err)
    assert at_err < loss_at_sigma(0.8 * err)
    assert at_err < loss_at_sigma(1.25 * err)
    assert at_err == pytest.approx(np.log(err) + 0.5, abs=1e-9)


def test_std_loss_zero_error_at_floor():
    rng = np.random.default_rng(14)
    critic = init_mlp([4, 8, 1], rng)
    xa = rng.normal(0.0, 1.0, (5, 4))
    v = mlp_forward(critic, xa)[:, 0]
    batch = SampleBatch(xa, np.zeros((5, 1)), v, np.zeros((5, 3)), xa, t_max=9)
    net = _const_sigma_net(-40.0)          # softplus(-40) ~ 0 -> sigma ~ floor
    loss, _ = std_critic_loss(net, critic, batch)
    assert loss == pytest.approx(np.log(1e-3), abs=1e-9)


def test_std_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    critic = init_mlp([4, 8, 1], rng)
    std_net = init_mlp([4, 10, 6, 1], rng, head="std")
    batch = _rand_batch(rng, 3, 10)
    _, grads = std_critic_loss(std_net, critic, batch)
    fd = _fd_grads(lambda m: std_critic_loss(m, critic, batch)[0], std_net,
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
    params = [rng.normal(0, 1, (3, 2)), rng.normal(0, 1, 3)]
    state = AdamState.init(params, lr=1e-2)
    new_params, new_state = adam_step(params, state,
                                      [np.zeros((3, 2)), np.zeros(3)])
    for p, q in zip(params, new_params):
        np.testing.assert_array_equal(p, q)
    assert new_state.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    params = [np.zeros(4)]
    state = AdamState.init(params, lr=3e-3)
    g = np.array([0.5, -2.0, 10.0, -0.01])
    new_params, _ = adam_step(params, state, [g])
    np.testing.assert_allclose(np.abs(new_params[0]), 3e-3, rtol=1e-5)
    assert np.all(np.sign(new_params[0]) == -np.sign(g))


def test_adam_descends_quadratic():
    params = [np.array([4.0, -3.0])]
    state = AdamState.init(params, lr=5e-2)
    target = np.array([1.0, 1.0])
    for _ in range(100):
        g = 2.0 * (params[0] - target)
        params, state = adam_step(params, state, [g])
    assert np.linalg.norm(params[0] - target) < np.linalg.norm([3.0, -4.0])


def test_adam_rejects_shape_mismatch():
    params = [np.zeros((2, 2))]
    state = AdamState.init(params)
    with pytest.raises(ValueError):
        adam_step(params, state, [np.zeros(3)])


# -- rollout / polyak / checkpoints ------------------------------------------------

def test_zero_actor_rollout_equals_naive_warm_start():
    rng = np.random.default_rng(19)
    model = envs.default_model("pointmass")
    actor = init_mlp([5, 8, 2], rng, head="tanh", out_scale=model.u_bound)
    zeroed = list(actor.flat_params())
    zeroed[-2] = np.zeros_like(zeroed[-2])
    zeroed[-1] = np.zeros_like(zeroed[-1])
    actor = actor.with_params(zeroed)
    start = TimeState(np.array([3.0, -2.0, 1.0, 0.5]), 0)
    traj = actor_rollout(actor, model, start, model.t_max)
    np.testing.assert_array_equal(traj.U, np.zeros((model.t_max, 2)))
    system = envs.system_for(model)
    x = start.x
    for k in range(model.t_max):
        x = system.step_x(x, np.zeros(2))
        np.testing.assert_array_equal(traj.X[k + 1], x)


def test_actor_rollout_is_dynamically_feasible():
    rng = np.random.default_rng(20)
    model = envs.default_model("dubins")
    actor = init_mlp([6, 12, 2], rng, head="tanh", out_scale=model.u_bound)
    start = TimeState(rng.uniform(-3, 3, 5), 10)
    traj = actor_rollout(actor, model, start, model.t_max - 10)
    system = envs.system_for(model)
    assert traj.t0 == 10
    for k in range(traj.horizon):
        np.testing.assert_allclose(traj.X[k + 1],
                                   system.step_x(traj.X[k], traj.U[k]),
                                   atol=1e-12)
    assert np.all(np.abs(traj.U) <= model.u_bound)


def test_actor_rollout_rejects_horizon_overflow():
    model = envs.default_model("pointmass")
    actor = init_mlp([5, 8, 2], np.random.default_rng(0), head="tanh",
                     out_scale=model.u_bound)
    with pytest.raises(ValueError):
        actor_rollout(actor, model, TimeState(np.zeros(4), 30), 31)


def test_polyak_moves_target_toward_online():
    rng = np.random.default_rng(21)
    a = init_mlp([3, 4, 1], rng)
    b = init_mlp([3, 4, 1], rng)
    mixed = polyak(a, b, tau=0.25)
    for pm, pa, pb in zip(mixed.flat_params(), a.flat_params(),
                          b.flat_params()):
        np.testing.assert_allclose(pm, 0.75 * pa + 0.25 * pb, atol=1e-15)


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


def test_update_determinism_from_seed():
    def run():
        rng = np.random.default_rng(33)
        critic = init_mlp([4, 8, 1], rng)
        batch = _rand_batch(np.random.default_rng(4), 3, 16)
        opt = AdamState.init(critic.flat_params(), lr=1e-3)
        for _ in range(10):
            _, grads = critic_loss(critic, None, batch, 1.0, False)
            params, opt = adam_step(critic.flat_params(), opt, grads)
            critic = critic.with_params(params)
        return critic

    a, b = run(), run()
    for pa, pb in zip(a.flat_params(), b.flat_params()):
        np.testing.assert_array_equal(pa, pb)
