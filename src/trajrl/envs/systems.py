"""Explicit-Euler discrete dynamics of the three low-dimensional systems.

All methods broadcast over an optional leading batch axis, which lets the
solver evaluate derivatives for a whole trajectory in one call.
"""

from __future__ import annotations

import numpy as np

from .base import System, register_system


@register_system("toy1d")
class Toy1D(System):
    """Single integrator on the line: x' = x + dt*u."""

    def step_x(self, x, u):
        return x + self.dt * u

    def jacobians(self, x, u):
        batch = x.shape[:-1]
        fx = np.broadcast_to(np.eye(1), batch + (1, 1)).copy()
        fu = np.broadcast_to(self.dt * np.eye(1), batch + (1, 1)).copy()
        return fx, fu

    def position(self, x):
        return x

    def position_derivs(self, x):
        raise NotImplementedError("toy1d uses its own scalar cost")


@register_system("pointmass")
class PointMass(System):
    """Planar double integrator: state (x, y, vx, vy), control (ax, ay)."""

    _A = np.array([[0.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0],
                   [0.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 0.0]])
    _B = np.array([[0.0, 0.0],
                   [0.0, 0.0],
                   [1.0, 0.0],
                   [0.0, 1.0]])

    def step_x(self, x, u):
        return x + self.dt * (x @ self._A.T + u @ self._B.T)

    def jacobians(self, x, u):
        batch = x.shape[:-1]
        fx = np.broadcast_to(np.eye(4) + self.dt * self._A, batch + (4, 4)).copy()
        fu = np.broadcast_to(self.dt * self._B, batch + (4, 2)).copy()
        return fx, fu

    def position(self, x):
        return x[..., :2]

    def position_derivs(self, x):
        batch = x.shape[:-1]
        jp = np.zeros(batch + (2, 4))
        jp[..., 0, 0] = 1.0
        jp[..., 1, 1] = 1.0
        hp = np.zeros(batch + (2, 4, 4))
        return x[..., :2], jp, hp


@register_system("dubins")
class DubinsCar(System):
    """Jerk-controlled unicycle: state (x, y, theta, v, a), control (omega, j)."""

    def step_x(self, x, u):
        th, v, a = x[..., 2], x[..., 3], x[..., 4]
        out = np.empty_like(x)
        out[..., 0] = x[..., 0] + self.dt * v * np.cos(th)
        out[..., 1] = x[..., 1] + self.dt * v * np.sin(th)
        out[..., 2] = th + self.dt * u[..., 0]
        out[..., 3] = v + self.dt * a
        out[..., 4] = a + self.dt * u[..., 1]
        return out

    def jacobians(self, x, u):
        batch = x.shape[:-1]
        th, v = x[..., 2], x[..., 3]
        fx = np.broadcast_to(np.eye(5), batch + (5, 5)).copy()
        fx[..., 0, 2] = -self.dt * v * np.sin(th)
        fx[..., 0, 3] = self.dt * np.cos(th)
        fx[..., 1, 2] = self.dt * v * np.cos(th)
        fx[..., 1, 3] = self.dt * np.sin(th)
        fx[..., 3, 4] = self.dt
        fu = np.zeros(batch + (5, 2))
        fu[..., 2, 0] = self.dt
        fu[..., 4, 1] = self.dt
        return fx, fu

    def position(self, x):
        return x[..., :2]

    def position_derivs(self, x):
        batch = x.shape[:-1]
        jp = np.zeros(batch + (2, 5))
        jp[..., 0, 0] = 1.0
        jp[..., 1, 1] = 1.0
        hp = np.zeros(batch + (2, 5, 5))
        return x[..., :2], jp, hp
