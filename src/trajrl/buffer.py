"""Replay storage for solver-generated training samples.

Samples are kept columnar (one array per field) so loss evaluation over a
minibatch is a handful of vectorized ops; `SampleBatch` carries the same
columns in and out of the buffer.
"""

from __future__ import annotations

import numpy as np


class SampleBatch:
    """Columnar view of a set of samples (augmented states include time)."""

    def __init__(self, xa, u, v_bar, v_bar_x, xa_plus_k, t_max: int):
        self.xa = np.asarray(xa, dtype=float)
        self.u = np.asarray(u, dtype=float)
        self.v_bar = np.asarray(v_bar, dtype=float)
        self.v_bar_x = np.asarray(v_bar_x, dtype=float)
        self.xa_plus_k = np.asarray(xa_plus_k, dtype=float)
        self.t_max = int(t_max)

    def __len__(self):
        return self.xa.shape[0]

    @property
    def n(self):
        return self.xa.shape[1] - 1


class ReplayBuffer:
    """FIFO ring buffer with uniform with-replacement minibatch sampling."""

    def __init__(self, n: int, m: int, t_max: int, capacity: int = 2**20):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.n, self.m = n, m
        self.t_max = t_max
        self.capacity = capacity
        self._xa = np.empty((capacity, n + 1))
        self._u = np.empty((capacity, m))
        self._v = np.empty(capacity)
        self._vx = np.empty((capacity, n))
        self._xk = np.empty((capacity, n + 1))
        self._size = 0
        self._cursor = 0

    def __len__(self):
        return self._size

    def push_many(self, batch: SampleBatch) -> int:
        """Append in order with FIFO eviction; returns the number stored.

        A batch with a non-finite v_bar is rejected whole, before any row is
        written.
        """
        count = len(batch)
        if count == 0:
            return 0
        if not np.all(np.isfinite(batch.v_bar)):
            raise ValueError("v_bar must be finite")
        start = max(0, count - self.capacity)          # keep only the newest
        kept = count - start
        idx = (self._cursor + np.arange(kept)) % self.capacity
        self._xa[idx] = batch.xa[start:]
        self._u[idx] = batch.u[start:]
        self._v[idx] = batch.v_bar[start:]
        self._vx[idx] = batch.v_bar_x[start:]
        self._xk[idx] = batch.xa_plus_k[start:]
        self._cursor = int((self._cursor + kept) % self.capacity)
        self._size = min(self._size + kept, self.capacity)
        return kept

    def sample_minibatch(self, batch_size: int, rng: np.random.Generator) -> SampleBatch:
        """Uniform with replacement; deterministic for a given generator state."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return SampleBatch(self._xa[idx], self._u[idx], self._v[idx],
                           self._vx[idx], self._xk[idx], self.t_max)
