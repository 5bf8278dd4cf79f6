import dataclasses

import numpy as np
import pytest

from trajrl import envs
from trajrl.envs import Region, register_system, toy1d_cost
from trajrl.envs.costs import TOY_TILT, TaskCost, Toy1DCost
from trajrl.envs.manipulator import PlanarChain

SYSTEMS = ["toy1d", "pointmass", "dubins", "manipulator3"]
CHAINS = ["chain2", "chain5"]


def _chain_defaults(lengths, masses):
    links = len(lengths)
    return dict(
        n=2 * links, m=links, dt=0.05, t_max=100, u_max=(20.0,) * links,
        workspace=((-np.pi, np.pi),) * links + ((-2.0, 2.0),) * links,
        hard_region=((-0.4, 0.4),) * links + ((0.0, 0.0),) * links,
        extra=tuple((f"l{k + 1}", v) for k, v in enumerate(lengths))
        + tuple((f"m{k + 1}", v) for k, v in enumerate(masses)))


@register_system("chain2")
class Chain2(PlanarChain):
    defaults = _chain_defaults((1.0, 0.8), (1.2, 0.7))


@register_system("chain5")
class Chain5(PlanarChain):
    defaults = _chain_defaults((1.0, 0.8, 0.7, 0.5, 0.4), (1.2, 1.0, 0.8, 0.5, 0.3))


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
                               system._dynamics(xx[:3], xx[3:], u)[0]])

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
        sys_half = envs.system_for(half)
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


@pytest.mark.parametrize("name", SYSTEMS + CHAINS)
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


# -- planar chain --------------------------------------------------------------

def _outer(scalar, mat):
    return scalar[..., None, None] * mat


class Manipulator3:
    """The 3-link chain as written out by hand before `PlanarChain` derived
    its tables for any link count: the bit-for-bit reference."""

    def __init__(self, spec):
        self.dt = spec.dt
        p = spec.extra_params()
        l1, l2, l3 = p["l1"], p["l2"], p["l3"]
        m1, m2, m3 = p["m1"], p["m2"], p["m3"]
        r1, r2, r3 = l1 / 2, l2 / 2, l3 / 2          # rod center of mass
        i1, i2, i3 = (m1 * l1**2 / 12, m2 * l2**2 / 12, m3 * l3**2 / 12)

        a1 = i1 + m1 * r1**2 + (m2 + m3) * l1**2
        a2 = i2 + m2 * r2**2 + m3 * l2**2
        a3 = i3 + m3 * r3**2
        b12 = (m2 * r2 + m3 * l2) * l1
        b13 = m3 * r3 * l1
        b23 = m3 * r3 * l2

        self._a0 = np.array([[a1 + a2 + a3, a2 + a3, a3],
                             [a2 + a3, a2 + a3, a3],
                             [a3, a3, a3]])
        self._b12 = b12 * np.array([[2.0, 1, 0], [1, 0, 0], [0, 0, 0]])
        self._b13 = b13 * np.array([[2.0, 1, 1], [1, 0, 0], [1, 0, 0]])
        self._b23 = b23 * np.array([[2.0, 2, 1], [2, 2, 1], [1, 1, 0]])

    def _mass_terms(self, q):
        c2, s2 = np.cos(q[..., 1]), np.sin(q[..., 1])
        c3, s3 = np.cos(q[..., 2]), np.sin(q[..., 2])
        q23 = q[..., 1] + q[..., 2]
        c23, s23 = np.cos(q23), np.sin(q23)
        m = (self._a0 + _outer(c2, self._b12) + _outer(c23, self._b13)
             + _outer(c3, self._b23))
        dm = np.zeros(q.shape[:-1] + (3, 3, 3))
        dm[..., 1, :, :] = -_outer(s2, self._b12) - _outer(s23, self._b13)
        dm[..., 2, :, :] = -_outer(s23, self._b13) - _outer(s3, self._b23)
        return m, dm

    def _mass_hessian(self, q):
        c2, c3 = np.cos(q[..., 1]), np.cos(q[..., 2])
        c23 = np.cos(q[..., 1] + q[..., 2])
        ddm = np.zeros(q.shape[:-1] + (3, 3, 3, 3))
        ddm[..., 1, 1, :, :] = -_outer(c2, self._b12) - _outer(c23, self._b13)
        ddm[..., 1, 2, :, :] = -_outer(c23, self._b13)
        ddm[..., 2, 1, :, :] = ddm[..., 1, 2, :, :]
        ddm[..., 2, 2, :, :] = -_outer(c23, self._b13) - _outer(c3, self._b23)
        return ddm

    @staticmethod
    def _christoffel(dm):
        d_kij = np.moveaxis(dm, -3, -1)
        d_jik = np.swapaxes(d_kij, -2, -1)
        return 0.5 * (d_kij + d_jik - dm)

    def forward_dynamics(self, q, dq, tau):
        m, dm = self._mass_terms(q)
        c = self._christoffel(dm)
        h = np.einsum("...ijk,...j,...k->...i", c, dq, dq)
        return np.linalg.solve(m, (tau - h)[..., None])[..., 0]

    def step_x(self, x, u):
        q, dq = x[..., :3], x[..., 3:]
        qdd = self.forward_dynamics(q, dq, u)
        return np.concatenate([q + self.dt * dq, dq + self.dt * qdd], axis=-1)

    def jacobians(self, x, u):
        batch = x.shape[:-1]
        q, dq = x[..., :3], x[..., 3:]
        m, dm = self._mass_terms(q)
        ddm = self._mass_hessian(q)
        c = self._christoffel(dm)
        h = np.einsum("...ijk,...j,...k->...i", c, dq, dq)
        qdd = np.linalg.solve(m, (u - h)[..., None])[..., 0]
        dc = 0.5 * (np.moveaxis(ddm, -4, -1) + np.moveaxis(ddm, -4, -2)
                    - np.swapaxes(ddm, -4, -3))
        dh_q = np.einsum("...lijk,...j,...k->...il", dc, dq, dq)
        dh_dq = np.einsum("...ilk,...k->...il", c + np.swapaxes(c, -2, -1), dq)
        minv = np.linalg.inv(m)
        rhs_q = -dh_q - np.einsum("...lij,...j->...il", dm, qdd)
        dqdd_q = np.einsum("...ij,...jl->...il", minv, rhs_q)
        dqdd_dq = -np.einsum("...ij,...jl->...il", minv, dh_dq)
        fx = np.zeros(batch + (6, 6))
        eye3 = np.eye(3)
        fx[..., :3, :3] = eye3
        fx[..., :3, 3:] = self.dt * eye3
        fx[..., 3:, :3] = self.dt * dqdd_q
        fx[..., 3:, 3:] = eye3 + self.dt * dqdd_dq
        fu = np.zeros(batch + (6, 3))
        fu[..., 3:, :] = self.dt * minv
        return fx, fu


def test_chain_matches_hand_written_manipulator3_bitwise():
    model = envs.default_model("manipulator3")
    chain, ref = envs.system_for(model), Manipulator3(model)
    rng = np.random.default_rng(31)
    lo, hi = model.region_box(Region.WORKSPACE)
    x = 1.5 * rng.uniform(lo, hi, (1000, 6))         # past the box too
    u = rng.uniform(-1.0, 1.0, (1000, 3)) * model.u_bound
    x[0], x[1], x[2, :3] = 0.0, -0.0, 0.0            # exact zeros, both signs
    u[0], u[1] = 0.0, -0.0

    def outputs(system, qdd, x, u):
        return (system.step_x(x, u), *system.jacobians(x, u),
                qdd(x[..., :3], x[..., 3:], u))

    cases = [(x, u), (x.reshape(10, 100, 6), u.reshape(10, 100, 3))]
    cases += list(zip(x, u))                         # single 1-D states
    for xc, uc in cases:
        for got, want in zip(outputs(chain, lambda *a: chain._dynamics(*a)[0], xc, uc),
                             outputs(ref, ref.forward_dynamics, xc, uc)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # M, dM and d2M themselves, signs of zero included
    q = x[:, :3]
    for got, want in zip(chain._mass_terms(q, second=True),
                         (*ref._mass_terms(q), ref._mass_hessian(q))):
        assert got.tobytes() == want.tobytes()


def test_two_link_chain_is_the_textbook_2r_arm():
    model = envs.default_model("chain2")
    system = envs.system_for(model)
    p = model.extra_params()
    l1, l2, m1, m2 = p["l1"], p["l2"], p["m1"], p["m2"]
    r1, r2 = l1 / 2, l2 / 2
    i1, i2 = m1 * l1**2 / 12, m2 * l2**2 / 12
    rng = np.random.default_rng(4)
    for _ in range(20):
        q, dq = rng.uniform(-3.0, 3.0, 2), rng.uniform(-2.0, 2.0, 2)
        tau = rng.uniform(-5.0, 5.0, 2)
        c2, s2 = np.cos(q[1]), np.sin(q[1])
        m12 = i2 + m2 * (r2**2 + l1 * r2 * c2)
        mass = np.array([[i1 + i2 + m1 * r1**2
                          + m2 * (l1**2 + r2**2 + 2 * l1 * r2 * c2), m12],
                         [m12, i2 + m2 * r2**2]])
        coriolis = m2 * l1 * r2 * s2 * np.array([-2 * dq[0] * dq[1] - dq[1]**2,
                                                 dq[0]**2])
        np.testing.assert_allclose(system._mass_terms(q)[0], mass, rtol=1e-14)
        qdd = system._dynamics(q, dq, tau)[0]
        np.testing.assert_allclose(mass @ qdd + coriolis, tau, atol=1e-12)


@pytest.mark.parametrize("name", CHAINS)
def test_chain_position_derivs_match_finite_differences(name):
    model = envs.default_model(name)
    system = envs.system_for(model)
    rng = np.random.default_rng(6)
    h = 1e-6
    for _ in range(10):
        x, _ = _random_state_control(rng, model)
        p, jp, hp = system.position_derivs(x)
        np.testing.assert_allclose(p, system.position(x), rtol=1e-15)
        eye = np.eye(model.n)
        jp_fd = np.stack([(system.position(x + h * e) - system.position(x - h * e))
                          / (2 * h) for e in eye], axis=-1)
        hp_fd = np.stack([(system.position_derivs(x + h * e)[1]
                           - system.position_derivs(x - h * e)[1]) / (2 * h)
                          for e in eye], axis=-1)
        assert np.abs(jp - jp_fd).max() < 1e-7
        assert np.abs(hp - hp_fd).max() < 1e-6


# -- costs ---------------------------------------------------------------------

def test_pointmass_cost_at_target_is_reward_dominated(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    x = np.array([field.target[0], field.target[1], 0.0, 0.0])
    l = envs.cost_for(model, field).stage(x, np.zeros(2))
    # distance term vanishes, obstacles are far: only the bonus plus residue
    assert l < -field.target_reward_weight + 1e-3
    assert l > -field.target_reward_weight - 1e-12


def test_control_gradient_is_quadratic_effort(pointmass_rc):
    model, field = pointmass_rc.model, pointmass_rc.field
    _, lu, _, luu = envs.cost_for(model, field).stage_derivs(
        np.array([3.0, -2.0, 0.5, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(lu, [2.0 * field.control_weight, 0.0], atol=1e-15)
    np.testing.assert_allclose(luu, 2.0 * field.control_weight * np.eye(2),
                               atol=1e-15)


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
        lx, lu, lxx, luu = cost.stage_derivs(x, u)
        eye_n, eye_m = np.eye(model.n), np.eye(model.m)
        lx_fd = np.array([(cost.stage(x + h * e, u) - cost.stage(x - h * e, u))
                          / (2 * h) for e in eye_n])
        lu_fd = np.array([(cost.stage(x, u + h * e) - cost.stage(x, u - h * e))
                          / (2 * h) for e in eye_m])
        lxx_fd = np.stack([(cost.stage_derivs(x + h * e, u)[0]
                            - cost.stage_derivs(x - h * e, u)[0]) / (2 * h)
                           for e in eye_n], axis=1)
        lt_x, lt_xx = cost.terminal_derivs(x)
        lt_x_fd = np.array([(cost.terminal(x + h * e) - cost.terminal(x - h * e))
                            / (2 * h) for e in eye_n])
        lt_xx_fd = np.stack([(cost.terminal_derivs(x + h * e)[0]
                              - cost.terminal_derivs(x - h * e)[0]) / (2 * h)
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


# The four entry points as Toy1DCost and TaskCost each wrote them out before
# `Cost` wrote them once over the state term: the bit-for-bit reference.

def _per_class_entry_points(cost, field, x, u):
    w_u = field.control_weight
    batch = x.shape[:-1]
    if isinstance(cost, Toy1DCost):
        s = x[..., 0]
        base = ((4.0 * s**3 - 4.0 * s + TOY_TILT)[..., None],
                (12.0 * s**2 - 4.0)[..., None, None])
        stage = toy1d_cost(s) + w_u * (u[..., 0] ** 2)
        m = 1
        terminal = toy1d_cost(s)
    else:
        p, jp, hp = cost.system.position_derivs(x)
        g, h = cost.point_derivs(p)
        base = (np.einsum("...ci,...c->...i", jp, g),
                np.einsum("...ci,...cd,...dj->...ij", jp, h, jp)
                + np.einsum("...c,...cij->...ij", g, hp))
        stage = cost.point_value(cost.system.position(x)) + w_u * (u**2).sum(axis=-1)
        m = cost.system.m
        terminal = cost.point_value(cost.system.position(x))
    luu = np.broadcast_to(2.0 * w_u * np.eye(m), batch + (m, m)).copy()
    derivs = (base[0], 2.0 * w_u * u, base[1], luu)
    return stage, derivs, terminal, base


def test_subclasses_supply_only_their_state_term():
    for cls in (Toy1DCost, TaskCost):
        assert not {"stage", "stage_derivs", "terminal",
                    "terminal_derivs"} & set(vars(cls)), cls.__name__


@pytest.mark.parametrize("name", SYSTEMS)
def test_shared_entry_points_match_per_class_ones_bitwise(
        name, pointmass_rc, toy_rc, dubins_rc, manipulator_rc):
    rc = {"toy1d": toy_rc, "pointmass": pointmass_rc, "dubins": dubins_rc,
          "manipulator3": manipulator_rc}[name]
    model, field = rc.model, rc.field
    cost = envs.cost_for(model, field)
    rng = np.random.default_rng(13)
    rows = [_random_state_control(rng, model) for _ in range(9)]
    xs = np.stack([x for x, _ in rows])
    us = np.stack([u for _, u in rows])
    us[0] = 0.0
    us[1] = -0.0
    us[2, 0] = -0.0
    cases = [(xs, us), (xs.reshape(3, 3, model.n), us.reshape(3, 3, model.m))]
    cases += [(xs[i], us[i]) for i in range(3)]       # single 1-D states
    for x, u in cases:
        got = (cost.stage(x, u), cost.stage_derivs(x, u), cost.terminal(x),
               cost.terminal_derivs(x))
        want = _per_class_entry_points(cost, field, x, u)
        for g, w in zip((got[0], *got[1], got[2], *got[3]),
                        (want[0], *want[1], want[2], *want[3])):
            g, w = np.asarray(g), np.asarray(w)
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


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


# -- validation ------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda m: dataclasses.replace(m, dt=np.nan),
    lambda m: dataclasses.replace(m, u_max=(np.nan,)),
    lambda m: envs.CostField(control_weight=np.nan),
    lambda m: envs.CostField(target_reward_radius=np.nan),
    lambda m: envs.Ellipse((0.0, 0.0), (1.0, np.nan)),
    lambda m: dataclasses.replace(m, workspace=((2.0, -2.0),)),
    lambda m: dataclasses.replace(m, hard_region=((np.nan, 1.0),)),
    lambda m: dataclasses.replace(m, dt=np.inf),
    lambda m: dataclasses.replace(m, u_max=(np.inf,)),
], ids=["dt", "u_max", "weight", "radius", "semi_axes", "workspace-inverted",
        "hard-region-nan", "dt-inf", "u-max-inf"])
def test_nan_model_and_cost_values_rejected(make):
    with pytest.raises(ValueError):
        make(envs.default_model("toy1d"))
