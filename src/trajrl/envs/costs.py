"""Stage/terminal costs with exact derivatives.

A stage cost is a state term plus the control effort w_u*|u|^2; the terminal
cost is the state term alone.  The 2D systems share a state term acting on a
task-space point p(x): quadratic distance to the target, a Gaussian bonus in
the target neighborhood and a softplus barrier around each elliptic obstacle.
The 1D toy system uses its own double well.
"""

from __future__ import annotations

import numpy as np

from .base import CostField, System

BARRIER_SHARPNESS = 10.0   # slope of the softplus obstacle wall

# double-well parameters: (x^2 - 1)^2 + TILT * x
TOY_TILT = 0.3


def softplus(z):
    return np.logaddexp(0.0, z)


def sigmoid(z):
    # exp(z - softplus(z)) is overflow-safe on both tails
    z = np.asarray(z, dtype=float)
    return np.exp(z - np.logaddexp(0.0, z))


def toy1d_cost(x):
    """Double-well running cost; global minimum left, worse local minimum right."""
    x = np.asarray(x, dtype=float)
    return (x**2 - 1.0) ** 2 + TOY_TILT * x


class Cost:
    """Derivative interface used by the solver; broadcasts over a batch axis.

    The effort term and the four entry points are written here once; a
    subclass supplies only its state term, as `value(x)` and `derivs(x)` ->
    (d/dx, d2/dx2).  The effort weight w_u is the field's control_weight.
    `stage_derivs` returns fresh (l_x, l_u, l_xx, l_uu), `terminal_derivs`
    (l_x, l_xx); no cost couples x and u.
    """

    def __init__(self, field: CostField):
        self.field = field
        self.w_u = field.control_weight

    def value(self, x):
        raise NotImplementedError

    def derivs(self, x):
        raise NotImplementedError

    def stage(self, x, u):
        return self.value(x) + self.w_u * (u**2).sum(axis=-1)

    def effort_grad(self, u):
        """l_u: the effort's gradient, the only term of l that sees u."""
        return 2.0 * self.w_u * u

    def stage_derivs(self, x, u):
        batch, m = x.shape[:-1], u.shape[-1]
        lx, lxx = self.derivs(x)
        luu = np.broadcast_to(2.0 * self.w_u * np.eye(m), batch + (m, m)).copy()
        return lx, self.effort_grad(u), lxx, luu

    def terminal(self, x):
        return self.value(x)

    def terminal_derivs(self, x):
        return self.derivs(x)


class Toy1DCost(Cost):
    """The double well of the single state coordinate."""

    def __init__(self, field: CostField):
        if field != CostField(control_weight=field.control_weight):
            raise ValueError("toy1d takes only control_weight from [cost]")
        super().__init__(field)

    def value(self, x):
        return toy1d_cost(x[..., 0])

    def derivs(self, x):
        s = x[..., 0]
        return ((4.0 * s**3 - 4.0 * s + TOY_TILT)[..., None],
                (12.0 * s**2 - 4.0)[..., None, None])


class TaskCost(Cost):
    """Reach/avoid cost acting through the system's task-space point."""

    def __init__(self, system: System, field: CostField):
        if len(field.obstacles) != 3:
            raise ValueError(f"{system.spec.name} expects exactly 3 obstacles, "
                             f"got {len(field.obstacles)}")
        super().__init__(field)
        self.system = system
        self.target = np.asarray(field.target, dtype=float)
        self.forms = [ob.quadratic_form() for ob in field.obstacles]
        self.centers = [np.asarray(ob.center, dtype=float) for ob in field.obstacles]

    # -- scalar field over the 2D task point ---------------------------------

    def point_value(self, p):
        f = self.field
        diff = p - self.target
        q = (diff**2).sum(axis=-1)
        val = f.distance_weight * q
        val -= f.target_reward_weight * np.exp(-q / f.target_reward_radius**2)
        for e_mat, c in zip(self.forms, self.centers):
            d = p - c
            e = np.einsum("...i,ij,...j->...", d, e_mat, d)
            val += f.obstacle_weight * softplus(BARRIER_SHARPNESS * (1.0 - e))
        return val

    def point_derivs(self, p):
        """(d/dp, d2/dp2) of point_value."""
        f = self.field
        batch = p.shape[:-1]
        diff = p - self.target
        q = (diff**2).sum(axis=-1)
        eye2 = np.eye(2)

        g = 2.0 * f.distance_weight * diff
        h = np.broadcast_to(2.0 * f.distance_weight * eye2, batch + (2, 2)).copy()

        # bonus r(q) = -w exp(-q/rho^2)
        rho2 = f.target_reward_radius**2
        ex = np.exp(-q / rho2)
        dr = (f.target_reward_weight / rho2) * ex          # dr/dq
        d2r = -dr / rho2
        g += dr[..., None] * 2.0 * diff
        h += 2.0 * dr[..., None, None] * eye2
        h += 4.0 * d2r[..., None, None] * diff[..., :, None] * diff[..., None, :]

        s = BARRIER_SHARPNESS
        for e_mat, c in zip(self.forms, self.centers):
            d = p - c
            ed = d @ e_mat.T
            e = (d * ed).sum(axis=-1)
            z = s * (1.0 - e)
            sig = sigmoid(z)
            db = -f.obstacle_weight * s * sig               # db/de
            d2b = f.obstacle_weight * s**2 * sig * (1.0 - sig)
            g += db[..., None] * 2.0 * ed
            h += 4.0 * d2b[..., None, None] * ed[..., :, None] * ed[..., None, :]
            h += 2.0 * db[..., None, None] * e_mat
        return g, h

    # -- chained to the state -------------------------------------------------

    def value(self, x):
        return self.point_value(self.system.position(x))

    def derivs(self, x):
        """(d/dx, d2/dx2) of the point field through p(x)."""
        p, jp, hp = self.system.position_derivs(x)
        g, h = self.point_derivs(p)
        lx = np.einsum("...ci,...c->...i", jp, g)
        lxx = (np.einsum("...ci,...cd,...dj->...ij", jp, h, jp)
               + np.einsum("...c,...cij->...ij", g, hp))
        return lx, lxx
