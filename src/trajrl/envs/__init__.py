"""Benchmark systems: dynamics, costs, derivatives, and start-state sampling."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .base import (Bounds, CostField, Ellipse, ModelSpec, Region, System,
                   TimeState, check_ranges, in_range, register_system, setting,
                   system_class)
from .costs import Cost, toy1d_cost
from . import systems as _systems          # noqa: F401  (registers systems)
from . import manipulator as _manipulator  # noqa: F401

__all__ = [
    "Bounds", "CostField", "Ellipse", "ModelSpec", "Region", "System",
    "TimeState", "Cost", "toy1d_cost", "default_model", "system_for",
    "cost_for", "sample_initial_states", "register_system", "system_class",
    "check_ranges", "in_range", "setting",
]


def default_model(name: str) -> ModelSpec:
    return ModelSpec(name=name, **system_class(name).defaults)


@lru_cache(maxsize=None)
def system_for(spec: ModelSpec) -> System:
    return system_class(spec.name)(spec)


@lru_cache(maxsize=None)
def cost_for(spec: ModelSpec, field: CostField) -> Cost:
    return system_for(spec).cost(field)


def sample_initial_states(model: ModelSpec, count: int, rng_seed,
                          region: Region = Region.WORKSPACE) -> list[TimeState]:
    """Uniform i.i.d. starts over the requested box, all at t = 0."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    lo, hi = model.region_box(region)
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(size=(count, model.n)) * (hi - lo) + lo
    return [TimeState(x=xs[i], t=0) for i in range(count)]
