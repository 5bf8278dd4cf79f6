"""Planar 3-link manipulator with torque control, horizontal plane (no gravity).

State (q1, q2, q3, dq1, dq2, dq3), control (tau1, tau2, tau3).  The mass
matrix of a 3R chain depends on q only through cos(q2), cos(q3), cos(q2+q3),
so it decomposes as

    M(q) = A0 + B12 cos(q2) + B13 cos(q2+q3) + B23 cos(q3)

with constant symmetric matrices; Coriolis terms and all dynamics derivatives
follow from the analytic dM/dq and d2M/dq2 via Christoffel symbols.
"""

from __future__ import annotations

import numpy as np

from .base import ModelSpec, register_system
from .systems import _PI, TaskSpaceSystem


def _outer(scalar, mat):
    return scalar[..., None, None] * mat


@register_system("manipulator3")
class Manipulator3(TaskSpaceSystem):

    # extra: link lengths l1..l3 and masses m1..m3, each set by a config's
    # param_<name> key
    defaults = dict(
        n=6, m=3, dt=0.05, t_max=100, u_max=(100.0, 60.0, 25.0),
        workspace=((-_PI, _PI), (-_PI, _PI), (-_PI, _PI),
                   (-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
        hard_region=((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4),
                     (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
        extra=(("l1", 4.0), ("l2", 3.5), ("l3", 2.5),
               ("m1", 1.5), ("m2", 1.0), ("m3", 0.6)))

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        p = spec.extra_params()
        l1, l2, l3 = p["l1"], p["l2"], p["l3"]
        m1, m2, m3 = p["m1"], p["m2"], p["m3"]
        self.lengths = np.array([l1, l2, l3])
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

    # -- rigid-body terms ---------------------------------------------------

    def _mass_terms(self, q):
        """M and dM/dq (lead index = derivative)."""
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
        """d2M/dq2 (two lead indices); only the Jacobians need it."""
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
        # dm layout (..., deriv, row, col); c[i,j,k] = 0.5*(dM_k[i,j] + dM_j[i,k] - dM_i[j,k])
        d_kij = np.moveaxis(dm, -3, -1)
        d_jik = np.swapaxes(d_kij, -2, -1)
        return 0.5 * (d_kij + d_jik - dm)

    def forward_dynamics(self, q, dq, tau):
        m, dm = self._mass_terms(q)
        c = self._christoffel(dm)
        h = np.einsum("...ijk,...j,...k->...i", c, dq, dq)
        return np.linalg.solve(m, (tau - h)[..., None])[..., 0]

    # -- discrete map ---------------------------------------------------------

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

        # dc[l,i,j,k] = d c[i,j,k] / d q_l, from the (symmetric) second derivative
        # of M with layout (..., a, b, row, col)
        dc = 0.5 * (np.moveaxis(ddm, -4, -1)        # ddM_{k,l}[i,j]
                    + np.moveaxis(ddm, -4, -2)      # ddM_{j,l}[i,k]
                    - np.swapaxes(ddm, -4, -3))     # ddM_{i,l}[j,k]
        dh_q = np.einsum("...lijk,...j,...k->...il", dc, dq, dq)
        dh_dq = np.einsum("...ilk,...k->...il", c + np.swapaxes(c, -2, -1), dq)

        # d(qdd)/dq_l = M^-1 (-dh_q[:,l] - dM_l @ qdd)
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

    # -- end-effector ---------------------------------------------------------

    def _angles(self, q):
        return np.cumsum(q, axis=-1)

    def position(self, x):
        al = self._angles(x[..., :3])
        return np.stack([(self.lengths * np.cos(al)).sum(axis=-1),
                         (self.lengths * np.sin(al)).sum(axis=-1)], axis=-1)

    def position_derivs(self, x):
        batch = x.shape[:-1]
        al = self._angles(x[..., :3])
        sx = self.lengths * np.cos(al)
        sy = self.lengths * np.sin(al)
        # tail sums over links i >= j
        tx = np.flip(np.cumsum(np.flip(sx, axis=-1), axis=-1), axis=-1)
        ty = np.flip(np.cumsum(np.flip(sy, axis=-1), axis=-1), axis=-1)

        p = np.stack([sx.sum(axis=-1), sy.sum(axis=-1)], axis=-1)
        jp = np.zeros(batch + (2, 6))
        jp[..., 0, :3] = -ty
        jp[..., 1, :3] = tx
        hp = np.zeros(batch + (2, 6, 6))
        jk = np.maximum(np.arange(3)[:, None], np.arange(3)[None, :])
        hp[..., 0, :3, :3] = -tx[..., jk]
        hp[..., 1, :3, :3] = -ty[..., jk]
        return p, jp, hp
