"""Core types for the benchmark systems: state, model description, cost geometry.

Specs are frozen (hashable) dataclasses built from plain tuples so they can be
used as cache keys and serialized into run manifests; numeric arrays are
derived from them on demand.

A system class is the one definition of its system: registered under the
system's name, it carries the default model (`defaults`, every `ModelSpec`
field but the name, including its physical parameters as `extra`), its
dynamics, and the cost it builds for a `CostField` (`cost`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

Bounds = tuple[tuple[float, float], ...]


class Region(enum.Enum):
    WORKSPACE = "workspace"
    HARD_REGION = "hard_region"


@dataclass(frozen=True)
class TimeState:
    """Augmented state: physical state vector plus discrete time index."""

    x: np.ndarray
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.x.ndim != 1:
            raise ValueError(f"state must be a 1-d vector, got shape {self.x.shape}")
        if self.t < 0:
            raise ValueError(f"time index must be >= 0, got {self.t}")

    @property
    def augmented(self) -> np.ndarray:
        """The network input [x, t]."""
        return np.concatenate([self.x, [float(self.t)]])


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    semi_axes: tuple[float, float]
    angle: float = 0.0

    def __post_init__(self):
        if not (all(0.0 < a < math.inf for a in self.semi_axes) and
                all(-math.inf < v < math.inf for v in (*self.center, self.angle))):
            raise ValueError(f"need finite center and angle, semi-axes in (0, inf): {self}")

    def quadratic_form(self) -> np.ndarray:
        """Symmetric E with (p-c)^T E (p-c) = 1 on the boundary."""
        c, s = np.cos(self.angle), np.sin(self.angle)
        rot = np.array([[c, s], [-s, c]])
        d = np.diag([1.0 / self.semi_axes[0] ** 2, 1.0 / self.semi_axes[1] ** 2])
        return rot.T @ d @ rot


@dataclass(frozen=True)
class CostField:
    """Weights and geometry of the reach-target / avoid-obstacles cost."""

    target: tuple[float, float] = (-7.0, 0.0)
    obstacles: tuple[Ellipse, ...] = ()
    obstacle_weight: float = 0.0
    target_reward_weight: float = 0.0
    target_reward_radius: float = 1.0
    control_weight: float = 0.0
    distance_weight: float = 1.0

    def __post_init__(self):
        for w in (self.obstacle_weight, self.target_reward_weight,
                  self.control_weight, self.distance_weight):
            if not w >= 0.0:
                raise ValueError("cost weights must be non-negative")
        if not self.target_reward_radius > 0.0:
            raise ValueError("target_reward_radius must be positive")
        if len(self.target) != 2:
            raise ValueError(f"target must have 2 entries, got {len(self.target)}")
        if not all(-math.inf < v < math.inf for v in self.target):
            raise ValueError(f"target must be finite, got {self.target}")


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one benchmark system."""

    name: str
    n: int
    m: int
    dt: float
    t_max: int
    u_max: tuple[float, ...]
    workspace: Bounds
    hard_region: Bounds
    extra: tuple[tuple[str, float], ...] = field(default=())

    def __post_init__(self):
        # every check is a negated test, so that a NaN fails it too
        if not 0.0 < self.dt < math.inf or self.t_max < 1:
            raise ValueError("need dt > 0 and t_max >= 1, with dt finite")
        if len(self.u_max) != self.m or not all(0 < b < math.inf for b in self.u_max):
            raise ValueError("u_max must have m finite positive components")
        for bounds, label in ((self.workspace, "workspace"),
                              (self.hard_region, "hard_region")):
            if len(bounds) != self.n:
                raise ValueError(f"{label} must cover all {self.n} state dims")
            for lo, hi in bounds:
                if not -math.inf < lo <= hi < math.inf:
                    raise ValueError(f"{label} bounds must be finite with "
                                     f"lo <= hi, got ({lo}, {hi})")

    @property
    def u_bound(self) -> np.ndarray:
        return np.asarray(self.u_max, dtype=float)

    def region_box(self, region: Region) -> tuple[np.ndarray, np.ndarray]:
        bounds = self.workspace if region is Region.WORKSPACE else self.hard_region
        return (np.array([b[0] for b in bounds]),
                np.array([b[1] for b in bounds]))

    def extra_params(self) -> dict[str, float]:
        return dict(self.extra)


class System:
    """Discrete-time dynamics of one system, vectorized over a leading batch axis.

    `step_x`/`jacobians` take raw state arrays (without the time index).
    """

    defaults: dict = {}     # ModelSpec fields other than name

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.n = spec.n
        self.m = spec.m
        self.dt = spec.dt

    def step_x(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobians(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def cost(self, field: CostField):
        """The stage/terminal cost of this system for `field`."""
        raise NotImplementedError


_REGISTRY: dict[str, type[System]] = {}


def register_system(name: str):
    def deco(cls):
        _REGISTRY[name] = cls
        return cls
    return deco


def system_class(name: str) -> type[System]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown system '{name}' "
                         f"(known: {sorted(_REGISTRY)})") from None
