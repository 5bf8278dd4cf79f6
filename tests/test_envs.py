import numpy as np
import pytest

from trajrl import envs
from trajrl.envs import Region, toy1d_cost

SYSTEMS = ["toy1d", "pointmass", "dubins", "manipulator3"]


def _field(rc):
    return rc.field


def _random_state_control(rng, spec):
    x = rng.uniform(-0.8, 0.8, spec.n) * np.array([b[1] if b[1] > b[0] else 1.0
                                                   for b in spec.workspace])
    u = rng.uniform(-0.9, 0.9, spec.m) * spec.u_bound
    return x, u


# -- step ----------------------------------------------------------------------

def test_pointmass_fixed_point_at_rest():
    system = envs.system_for(envs.default_model("pointmass"))
    out = system.step_x(np.zeros(4), np.zeros(2))
    np.testing.assert_array_equal(out, np.zeros(4))


def test_pointmass_euler_step():
    system = envs.system_for(envs.default_model("pointmass"))
    out = system.step_x(np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(2))
    np.testing.assert_allclose(out, [0.05, 0.0, 1.0, 0.0], atol=1e-15)


def _rk4_reference(system, x, u, dt, substeps=100):
    def rhs(xx):
        return np.concatenate([xx[3:],
                               system.forward_dynamics(xx[:3], xx[3:], u)])

    fine = x.copy()
    h = dt / substeps
    for _ in range(substeps):
        k1 = rhs(fine)
        k2 = rhs(fine + 0.5 * h * k1)
        k3 = rhs(fine + 0.5 * h * k2)
        k4 = rhs(fine + h * k3)
        fine = fine + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return fine


def test_manipulator_step_matches_rk4_reference():
    # explicit Euler against RK4 at dt/100: the one-step error is O(dt^2),
    # so halving dt must shrink it by about 4x
    model = envs.default_model("manipulator3")
    system = envs.system_for(model)
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 6)
        u = rng.uniform(-10.0, 10.0, 3)
        err_full = np.abs(system.step_x(x, u)
                          - _rk4_reference(system, x, u, model.dt)).max()
        half = envs.ModelSpec(**{**model.__dict__, "dt": model.dt / 2})
        sys_half = envs.make_system(half)
        err_half = np.abs(sys_half.step_x(x, u)
                          - _rk4_reference(sys_half, x, u, half.dt)).max()
        assert err_full < 100.0 * model.dt**2
        ratios.append(err_full / max(err_half, 1e-300))
    assert 3.0 < np.median(ratios) < 5.5


def test_step_composition_stays_finite():
    rng = np.random.default_rng(2)
    for name in SYSTEMS:
        model = envs.default_model(name)
        system = envs.system_for(model)
        for start in envs.sample_initial_states(model, 5, 17):
            x = start.x
            for _ in range(model.t_max):
                u = rng.uniform(-1.0, 1.0, model.m) * model.u_bound
                x = system.step_x(x, u)
            assert np.all(np.isfinite(x)), name


# -- jacobians -------------------------------------------------------------------

def test_pointmass_jacobians_are_linear_system_matrices():
    model = envs.default_model("pointmass")
    fx, fu = envs.system_for(model).jacobians(np.zeros(4), np.zeros(2))
    a = np.zeros((4, 4))
    a[0, 2] = a[1, 3] = 1.0
    b = np.zeros((4, 2))
    b[2, 0] = b[3, 1] = 1.0
    np.testing.assert_allclose(fx, np.eye(4) + model.dt * a, atol=1e-15)
    np.testing.assert_allclose(fu, model.dt * b, atol=1e-15)


def test_toy1d_jacobians():
    model = envs.default_model("toy1d")
    fx, fu = envs.system_for(model).jacobians(np.zeros(1), np.zeros(1))
    np.testing.assert_array_equal(fx, [[1.0]])
    np.testing.assert_array_equal(fu, [[model.dt]])


@pytest.mark.parametrize("name", SYSTEMS)
def test_dynamics_jacobians_match_finite_differences(name):
    model = envs.default_model(name)
    system = envs.system_for(model)
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(25):
        x, u = _random_state_control(rng, model)
        fx, fu = system.jacobians(x, u)
        fx_fd = np.stack([(system.step_x(x + h * e, u) - system.step_x(x - h * e, u))
                          / (2 * h) for e in np.eye(model.n)], axis=1)
        fu_fd = np.stack([(system.step_x(x, u + h * e) - system.step_x(x, u - h * e))
                          / (2 * h) for e in np.eye(model.m)], axis=1)
        assert np.abs(fx - fx_fd).max() < 1e-6
        assert np.abs(fu - fu_fd).max() < 1e-6


# -- costs ---------------------------------------------------------------------

def test_pointmass_cost_at_target_is_reward_dominated(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    x = np.array([field.target[0], field.target[1], 0.0, 0.0])
    l, *_ = envs.cost_for(model, field).stage_derivs(x, np.zeros(2))
    # distance term vanishes, obstacles are far: only the bonus plus residue
    assert l < -field.target_reward_weight + 1e-3
    assert l > -field.target_reward_weight - 1e-12


def test_control_gradient_is_quadratic_effort(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    _, _, lu, _, luu, lux = envs.cost_for(model, field).stage_derivs(
        np.array([3.0, -2.0, 0.5, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(lu, [2.0 * field.control_weight, 0.0], atol=1e-15)
    np.testing.assert_allclose(luu, 2.0 * field.control_weight * np.eye(2),
                               atol=1e-15)
    np.testing.assert_array_equal(lux, np.zeros((2, 4)))


@pytest.mark.parametrize("name", SYSTEMS)
def test_cost_derivatives_match_finite_differences(name, pointmass_rc, toy_rc,
                                                   dubins_rc, manipulator_rc):
    rc = {"toy1d": toy_rc, "pointmass": pointmass_rc, "dubins": dubins_rc,
          "manipulator3": manipulator_rc}[name]
    model, field = rc.model, rc.field
    cost = envs.cost_for(model, field)
    rng = np.random.default_rng(9)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        x, u = _random_state_control(rng, model)
        _, lx, lu, lxx, luu, lux = cost.stage_derivs(x, u)
        eye_n, eye_m = np.eye(model.n), np.eye(model.m)
        lx_fd = np.array([(cost.stage(x + h * e, u) - cost.stage(x - h * e, u))
                          / (2 * h) for e in eye_n])
        lu_fd = np.array([(cost.stage(x, u + h * e) - cost.stage(x, u - h * e))
                          / (2 * h) for e in eye_m])
        lxx_fd = np.stack([(cost.stage_derivs(x + h * e, u)[1]
                            - cost.stage_derivs(x - h * e, u)[1]) / (2 * h)
                           for e in eye_n], axis=1)
        _, lt_x, lt_xx = cost.terminal_derivs(x)
        lt_x_fd = np.array([(cost.terminal(x + h * e) - cost.terminal(x - h * e))
                            / (2 * h) for e in eye_n])
        lt_xx_fd = np.stack([(cost.terminal_derivs(x + h * e)[1]
                              - cost.terminal_derivs(x - h * e)[1]) / (2 * h)
                             for e in eye_n], axis=1)
        scale = max(1.0, np.abs(lx_fd).max(), np.abs(lu_fd).max())
        worst = max(worst,
                    np.abs(lx - lx_fd).max() / scale,
                    np.abs(lu - lu_fd).max() / scale,
                    np.abs(lxx - lxx_fd).max() / max(1.0, np.abs(lxx_fd).max()),
                    np.abs(lt_x - lt_x_fd).max() / max(1.0, np.abs(lt_x_fd).max()),
                    np.abs(lt_xx - lt_xx_fd).max()
                    / max(1.0, np.abs(lt_xx_fd).max()))
    assert worst < 1e-5


@pytest.mark.parametrize("name", SYSTEMS)
def test_terminal_cost_is_running_cost_without_control_terms(
        name, pointmass_rc, toy_rc, dubins_rc, manipulator_rc):
    rc = {"toy1d": toy_rc, "pointmass": pointmass_rc, "dubins": dubins_rc,
          "manipulator3": manipulator_rc}[name]
    cost = envs.cost_for(rc.model, rc.field)
    rng = np.random.default_rng(21)
    for _ in range(20):
        x, _ = _random_state_control(rng, rc.model)
        assert cost.terminal(x) == pytest.approx(
            cost.stage(x, np.zeros(rc.model.m)), abs=1e-13)


# -- toy double well -------------------------------------------------------------

TOY_GLOBAL_MIN = -1.0355787140888542   # roots of 4x^3 - 4x + 0.3
TOY_LOCAL_MIN = 0.9601495555191059


def test_toy1d_has_two_minima_global_left():
    assert toy1d_cost(TOY_GLOBAL_MIN) < toy1d_cost(TOY_LOCAL_MIN)


def test_toy1d_stationary_points_via_finite_differences():
    h = 1e-6
    for x in (TOY_GLOBAL_MIN, TOY_LOCAL_MIN):
        d = (toy1d_cost(x + h) - toy1d_cost(x - h)) / (2 * h)
        assert abs(d) < 1e-4


def test_toy1d_barrier_above_both_minima():
    barrier = 0.0754
    assert toy1d_cost(barrier) > toy1d_cost(TOY_GLOBAL_MIN)
    assert toy1d_cost(barrier) > toy1d_cost(TOY_LOCAL_MIN)


def test_toy1d_exactly_two_minima_on_grid_scan():
    xs = np.linspace(-2.0, 2.0, 10_000)
    h = 1e-6
    d = (toy1d_cost(xs + h) - toy1d_cost(xs - h)) / (2 * h)
    minima = np.sum((d[:-1] < 0) & (d[1:] > 0))
    assert minima == 2


# -- sampling --------------------------------------------------------------------

def test_sample_count_zero_rejected():
    model = envs.default_model("pointmass")
    with pytest.raises(ValueError):
        envs.sample_initial_states(model, 0, 0)


def test_sample_deterministic_for_seed():
    model = envs.default_model("dubins")
    a = envs.sample_initial_states(model, 50, 1234, Region.WORKSPACE)
    b = envs.sample_initial_states(model, 50, 1234, Region.WORKSPACE)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.x, sb.x)
        assert sa.t == sb.t == 0


def test_sample_uniform_means_within_three_sigma():
    model = envs.default_model("pointmass")
    states = envs.sample_initial_states(model, 10_000, 7, Region.WORKSPACE)
    xs = np.stack([s.x for s in states])
    lo, hi = model.region_box(Region.WORKSPACE)
    mid = (lo + hi) / 2
    sigma = (hi - lo) / np.sqrt(12.0) / np.sqrt(len(states))
    assert np.all(np.abs(xs.mean(axis=0) - mid) < 3.0 * sigma)


def test_hard_region_sampling_is_inside_box_with_zero_velocity():
    model = envs.default_model("pointmass")
    states = envs.sample_initial_states(model, 100, 3, Region.HARD_REGION)
    lo, hi = model.region_box(Region.HARD_REGION)
    for s in states:
        assert np.all(s.x >= lo) and np.all(s.x <= hi)
        assert s.x[2] == 0.0 and s.x[3] == 0.0
