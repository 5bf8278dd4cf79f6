"""Planar chain of N uniform rods with torque control, horizontal plane (no
gravity); `manipulator3` registers it with N = 3.  State (q_1..q_N, dq_1..dq_N),
control (tau_1..tau_N).  M(q) depends on q only through the angles between
the links of each pair a < b (0-indexed), so it decomposes as

    M(q) = A0 + sum_{a<b} B_ab cos(q_{a+1} + ... + q_b)

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
class PlanarChain(TaskSpaceSystem):

    # extra: link lengths l1..lN and masses m1..mN, each set by a config's
    # param_<name> key
    extra_interval = "(0, inf)"
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
        self.links = links = spec.n // 2
        ls = [p[f"l{k}"] for k in range(1, links + 1)]
        ms = [p[f"m{k}"] for k in range(1, links + 1)]
        self.lengths = np.array(ls)
        rs = [lk / 2 for lk in ls]                          # rod center of mass
        beyond = [sum(ms[k + 1:]) for k in range(links)]    # mass past link k

        # a_k = I_k + m_k r_k^2 + (mass past k) l_k^2 enters M[i, j] for i, j <= k
        self._a0 = np.zeros((links, links))
        for k, (lk, mk, rk, bk) in enumerate(zip(ls, ms, rs, beyond)):
            self._a0[:k + 1, :k + 1] += mk * lk**2 / 12 + mk * rk**2 + bk * lk**2
        idx = np.arange(links)
        self._pairs = [(a, b) for a in range(links) for b in range(a + 1, links)]
        self._b = []
        for a, b in self._pairs:
            pattern = np.outer(idx <= a, idx <= b).astype(float)
            self._b.append(ls[a] * (ms[b] * rs[b] + beyond[b] * ls[b])
                           * (pattern + pattern.T))

    # -- rigid-body terms ---------------------------------------------------

    def _mass_terms(self, q, second=False):
        """M, dM/dq and, when second, d2M/dq2 (lead indices = derivatives).

        Pair (a, b) adds B_ab cos(angle) to M, and its derivatives to the
        slots of q_{a+1}..q_b (M does not depend on q_1).  A slot negates its
        first term rather than subtract it from 0.0, whose sign of zero differs.
        """
        links, batch = self.links, q.shape[:-1]
        m, d1, d2 = self._a0, {}, {}
        for (a, b), tab in zip(self._pairs, self._b):
            angle = q[..., b] if b == a + 1 else angle + q[..., b]
            cos_tab = _outer(np.cos(angle), tab)
            m = m + cos_tab
            sin_tab = _outer(np.sin(angle), tab)
            span = range(a + 1, b + 1)
            for k in span:
                d1[k] = d1[k] - sin_tab if k in d1 else -sin_tab
                for l in (span if second else ()):
                    d2[k, l] = d2[k, l] - cos_tab if (k, l) in d2 else -cos_tab
        dm = np.zeros(batch + (links,) * 3)
        for k, term in d1.items():
            dm[..., k, :, :] = term
        if not second:
            return m, dm, None
        ddm = np.zeros(batch + (links,) * 4)
        for (k, l), term in d2.items():
            ddm[..., k, l, :, :] = term
        return m, dm, ddm

    def _dynamics(self, q, dq, tau, second=False):
        """(qdd, M, dM, d2M, Christoffel symbols); d2M only when second."""
        m, dm, ddm = self._mass_terms(q, second)
        # dm layout (..., deriv, row, col); c[i,j,k] = 0.5*(dM_k[i,j] + dM_j[i,k] - dM_i[j,k])
        d_kij = np.moveaxis(dm, -3, -1)
        c = 0.5 * (d_kij + np.swapaxes(d_kij, -2, -1) - dm)
        h = np.einsum("...ijk,...j,...k->...i", c, dq, dq)
        return np.linalg.solve(m, (tau - h)[..., None])[..., 0], m, dm, ddm, c

    # -- discrete map ---------------------------------------------------------

    def step_x(self, x, u):
        q, dq = x[..., :self.links], x[..., self.links:]
        qdd = self._dynamics(q, dq, u)[0]
        return np.concatenate([q + self.dt * dq, dq + self.dt * qdd], axis=-1)

    def jacobians(self, x, u):
        links, batch = self.links, x.shape[:-1]
        q, dq = x[..., :links], x[..., links:]
        qdd, m, dm, ddm, c = self._dynamics(q, dq, u, second=True)

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

        fx = np.zeros(batch + (self.n, self.n))
        eye = np.eye(links)
        fx[..., :links, :] = np.hstack([eye, self.dt * eye])
        fx[..., links:, :links] = self.dt * dqdd_q
        fx[..., links:, links:] = eye + self.dt * dqdd_dq
        fu = np.zeros(batch + (self.n, links))
        fu[..., links:, :] = self.dt * minv
        return fx, fu

    # -- end-effector ---------------------------------------------------------

    def position(self, x):
        al = np.cumsum(x[..., :self.links], axis=-1)
        return np.stack([(self.lengths * np.cos(al)).sum(axis=-1),
                         (self.lengths * np.sin(al)).sum(axis=-1)], axis=-1)

    def position_derivs(self, x):
        links, batch = self.links, x.shape[:-1]
        al = np.cumsum(x[..., :links], axis=-1)
        sx = self.lengths * np.cos(al)
        sy = self.lengths * np.sin(al)
        # tail sums over links i >= j
        tx = np.flip(np.cumsum(np.flip(sx, axis=-1), axis=-1), axis=-1)
        ty = np.flip(np.cumsum(np.flip(sy, axis=-1), axis=-1), axis=-1)

        p = np.stack([sx.sum(axis=-1), sy.sum(axis=-1)], axis=-1)
        jp = np.zeros(batch + (2, self.n))
        jp[..., 0, :links] = -ty
        jp[..., 1, :links] = tx
        hp = np.zeros(batch + (2, self.n, self.n))
        jk = np.maximum(np.arange(links)[:, None], np.arange(links)[None, :])
        hp[..., 0, :links, :links] = -tx[..., jk]
        hp[..., 1, :links, :links] = -ty[..., jk]
        return p, jp, hp
