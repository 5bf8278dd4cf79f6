"""Linear-quadratic test problems and an independent Riccati oracle.

The linear system is registered with the envs machinery and builds the
quadratic cost, so LQR instances run through the exact same solver entry
points as the benchmark systems; all matrices ride inside ModelSpec.extra, which keeps the
specs hashable and picklable.
"""

import numpy as np

from trajrl.envs import base as envs_base
from trajrl.envs import costs as envs_costs
from trajrl.envs.base import CostField, ModelSpec


@envs_base.register_system("lintest")
class LinearSystem(envs_base.System):
    def __init__(self, spec):
        super().__init__(spec)
        self.A = _unpack(spec, "a", spec.n, spec.n)
        self.B = _unpack(spec, "b", spec.n, spec.m)

    def step_x(self, x, u):
        # stacked matrix-vector products round alike for any batch shape
        return _mv(self.A, x) + _mv(self.B, u)

    def jacobians(self, x, u):
        batch = x.shape[:-1]
        return (np.broadcast_to(self.A, batch + self.A.shape).copy(),
                np.broadcast_to(self.B, batch + self.B.shape).copy())

    def cost(self, field):
        return QuadraticCost(self.spec)


class QuadraticCost(envs_costs.Cost):
    def __init__(self, spec):
        self.Q = _unpack(spec, "q", spec.n, spec.n)
        self.R = _unpack(spec, "r", spec.m, spec.m)
        self.QF = _unpack(spec, "f", spec.n, spec.n)

    def stage(self, x, u):
        return _quad(self.Q, x) + _quad(self.R, u)

    def effort_grad(self, u):
        return 2 * _mv(self.R, u)

    def stage_derivs(self, x, u):
        batch = x.shape[:-1]
        n, m = self.Q.shape[0], self.R.shape[0]
        return (2 * _mv(self.Q, x), self.effort_grad(u),
                np.broadcast_to(2 * self.Q, batch + (n, n)).copy(),
                np.broadcast_to(2 * self.R, batch + (m, m)).copy())

    def terminal(self, x):
        return _quad(self.QF, x)

    def terminal_derivs(self, x):
        batch = x.shape[:-1]
        n = self.QF.shape[0]
        return (2 * _mv(self.QF, x),
                np.broadcast_to(2 * self.QF, batch + (n, n)).copy())


def _mv(mat, v):
    """mat @ v over the trailing axis of v, as one stacked matmul."""
    return (mat @ v[..., None])[..., 0]


def _quad(mat, v):
    """v' mat v over the trailing axis of v, as stacked matmuls: they round
    alike for any batch shape, where einsum does not."""
    return (v[..., None, :] @ _mv(mat, v)[..., None])[..., 0, 0]


def _unpack(spec, tag, rows, cols):
    p = spec.extra_params()
    return np.array([[p[f"{tag}{i}_{j}"] for j in range(cols)]
                     for i in range(rows)])


def _pack(tag, mat):
    return [(f"{tag}{i}_{j}", float(mat[i, j]))
            for i in range(mat.shape[0]) for j in range(mat.shape[1])]


def random_lqr(rng, n=None, m=None, horizon=None):
    """Random well-posed LQR instance wrapped in a ModelSpec."""
    n = n or int(rng.integers(2, 7))
    m = m or int(rng.integers(1, 4))
    horizon = horizon or int(rng.integers(5, 51))
    A = rng.normal(0.0, 0.5, (n, n)) + 0.7 * np.eye(n)
    B = rng.normal(0.0, 0.5, (n, m))

    def spd(dim, floor, scale):
        M = rng.normal(0.0, scale, (dim, dim))
        return M @ M.T + floor * np.eye(dim)

    Q, R, QF = spd(n, 0.1, 0.4), spd(m, 0.2, 0.3), spd(n, 0.1, 0.5)
    extra = (_pack("a", A) + _pack("b", B) + _pack("q", Q) + _pack("r", R)
             + _pack("f", QF))
    spec = ModelSpec(name="lintest", n=n, m=m, dt=1.0, t_max=horizon,
                     u_max=tuple([1e9] * m),
                     workspace=tuple([(-1.0, 1.0)] * n),
                     hard_region=tuple([(-1.0, 1.0)] * n),
                     extra=tuple(extra))
    return spec, CostField(), (A, B, Q, R, QF)


def riccati_value_matrices(A, B, Q, R, QF, horizon):
    """Finite-horizon Riccati recursion for cost x'Qx + u'Ru (no 1/2 factors);
    optimal cost from x0 is x0' P[0] x0 and its gradient 2 P[0] x0."""
    n = A.shape[0]
    P = np.empty((horizon + 1, n, n))
    P[horizon] = QF
    for k in range(horizon - 1, -1, -1):
        BtP = B.T @ P[k + 1]
        gain = np.linalg.solve(R + BtP @ B, BtP @ A)
        nxt = Q + A.T @ P[k + 1] @ A - A.T @ P[k + 1] @ B @ gain
        P[k] = 0.5 * (nxt + nxt.T)
    return P


def riccati_gains(A, B, R, P):
    """Feedback gains u_k = -K_k x_k of the Riccati solution."""
    horizon = P.shape[0] - 1
    gains = np.empty((horizon, R.shape[0], A.shape[0]))
    for k in range(horizon):
        BtP = B.T @ P[k + 1]
        gains[k] = np.linalg.solve(R + BtP @ B, BtP @ A)
    return gains
