"""Benchmark systems: dynamics, costs, derivatives, and start-state sampling."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .base import (Bounds, CostField, Ellipse, ModelSpec, Region, System,
                   TimeState, make_system, register_system)
from .costs import Cost, build_cost, register_cost, toy1d_cost
from . import systems as _systems          # noqa: F401  (registers systems)
from . import manipulator as _manipulator  # noqa: F401

__all__ = [
    "Bounds", "CostField", "Ellipse", "ModelSpec", "Region", "System",
    "TimeState", "Cost", "toy1d_cost", "default_model", "system_for",
    "cost_for", "sample_initial_states", "register_system", "register_cost",
    "build_cost",
]

_PI = float(np.pi)

_DEFAULTS = {
    "toy1d": dict(
        n=1, m=1, dt=0.05, t_max=60, u_max=(2.0,),
        workspace=((-2.0, 2.0),),
        hard_region=((0.3, 1.9),),
    ),
    "pointmass": dict(
        n=4, m=2, dt=0.05, t_max=60, u_max=(20.0, 20.0),
        workspace=((-15.0, 15.0), (-15.0, 15.0), (-6.0, 6.0), (-6.0, 6.0)),
        hard_region=((5.0, 12.0), (-3.0, 3.0), (0.0, 0.0), (0.0, 0.0)),
    ),
    "dubins": dict(
        n=5, m=2, dt=0.05, t_max=100, u_max=(3.0, 6.0),
        workspace=((-15.0, 15.0), (-15.0, 15.0), (-_PI, _PI),
                   (-8.0, 8.0), (-4.0, 4.0)),
        hard_region=((5.0, 12.0), (-3.0, 3.0), (-_PI, _PI),
                     (0.0, 0.0), (0.0, 0.0)),
    ),
    "manipulator3": dict(
        n=6, m=3, dt=0.05, t_max=100, u_max=(100.0, 60.0, 25.0),
        workspace=((-_PI, _PI), (-_PI, _PI), (-_PI, _PI),
                   (-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
        hard_region=((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4),
                     (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
    ),
}


def default_model(name: str, **overrides) -> ModelSpec:
    if name not in _DEFAULTS:
        raise ValueError(f"unknown system '{name}' (known: {sorted(_DEFAULTS)})")
    kw = dict(_DEFAULTS[name])
    kw.update(overrides)
    return ModelSpec(name=name, **kw)


@lru_cache(maxsize=None)
def system_for(spec: ModelSpec) -> System:
    return make_system(spec)


@lru_cache(maxsize=None)
def cost_for(spec: ModelSpec, field: CostField) -> Cost:
    return build_cost(spec, field, system_for(spec))


def sample_initial_states(model: ModelSpec, count: int, rng_seed,
                          region: Region = Region.WORKSPACE) -> list[TimeState]:
    """Uniform i.i.d. starts over the requested box, all at t = 0."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if isinstance(region, str):
        region = Region(region)
    lo, hi = model.region_box(region)
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(size=(count, model.n)) * (hi - lo) + lo
    return [TimeState(x=xs[i], t=0) for i in range(count)]
