import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajrl.buffer import ReplayBuffer, SampleBatch


def _batch(tags, n=3):
    """One row per tag, every field filled with the tag."""
    tags = np.asarray(tags, dtype=float)
    xa = np.repeat(tags[:, None], n + 1, axis=1)
    xa[:, -1] = 0.0
    xk = xa.copy()
    xk[:, -1] = 1.0
    return SampleBatch(xa, tags, np.repeat(tags[:, None], n, axis=1), xk,
                       t_max=60)


def _make(capacity=10):
    return ReplayBuffer(n=3, t_max=60, capacity=capacity)


def test_push_partial_fill():
    buf = _make()
    buf.push_many(_batch(range(5)))
    assert len(buf) == 5


def test_push_overflow_evicts_oldest_first():
    buf = _make()
    buf.push_many(_batch(range(15)))
    assert len(buf) == 10
    batch = buf.sample_minibatch(1000, np.random.default_rng(0))
    tags = np.unique(batch.v_bar)
    assert tags.min() >= 5.0          # 0..4 evicted
    assert set(tags).issubset(set(range(5, 15)))


def test_push_empty_is_noop():
    buf = _make()
    buf.push_many(_batch([]))
    assert len(buf) == 0 and buf._cursor == 0


def test_push_beyond_capacity_in_one_call_keeps_newest():
    buf = _make(capacity=4)
    buf.push_many(_batch(range(9)))
    assert len(buf) == 4
    batch = buf.sample_minibatch(200, np.random.default_rng(1))
    assert set(np.unique(batch.v_bar)) == {5.0, 6.0, 7.0, 8.0}


def test_sample_single_element_repeats():
    buf = _make()
    buf.push_many(_batch([7.0]))
    batch = buf.sample_minibatch(4, np.random.default_rng(2))
    assert len(batch) == 4
    np.testing.assert_array_equal(batch.v_bar, np.full(4, 7.0))


def test_sample_deterministic_for_rng_state():
    buf = _make()
    buf.push_many(_batch(range(10)))
    a = buf.sample_minibatch(32, np.random.default_rng(42))
    b = buf.sample_minibatch(32, np.random.default_rng(42))
    np.testing.assert_array_equal(a.v_bar, b.v_bar)
    np.testing.assert_array_equal(a.xa, b.xa)


def test_sampling_is_uniform():
    buf = _make()
    buf.push_many(_batch(range(10)))
    rng = np.random.default_rng(3)
    draws = buf.sample_minibatch(100_000, rng).v_bar.astype(int)
    counts = np.bincount(draws, minlength=10)
    # each frequency within 3 sigma of 0.1
    sigma = np.sqrt(0.1 * 0.9 / 100_000)
    assert np.all(np.abs(counts / 100_000 - 0.1) < 3 * sigma)
    # chi-square over 10 cells, df=9: 27.9 is the 99.9% quantile
    chi2 = ((counts - 10_000.0) ** 2 / 10_000.0).sum()
    assert chi2 < 27.9


def test_sample_from_empty_buffer_raises():
    with pytest.raises(ValueError):
        _make().sample_minibatch(4, np.random.default_rng(0))


def test_capacity_never_exceeded_under_repeated_pushes():
    buf = _make(capacity=16)
    for wave in range(7):
        buf.push_many(_batch(wave * 100 + np.arange(5)))
        assert len(buf) <= 16


def test_push_rejects_non_finite_value_before_writing():
    buf = _make()
    buf.push_many(_batch(range(3)))
    bad = _batch([3.0, np.nan, 5.0])
    with pytest.raises(ValueError):
        buf.push_many(bad)
    bad.v_bar[1] = np.inf
    with pytest.raises(ValueError):
        buf.push_many(bad)
    assert len(buf) == 3
    batch = buf.sample_minibatch(200, np.random.default_rng(4))
    assert set(np.unique(batch.v_bar)) == {0.0, 1.0, 2.0}


@settings(max_examples=30, deadline=None)
@given(capacity=st.integers(1, 12),
       sizes=st.lists(st.integers(0, 30), min_size=1, max_size=8))
def test_ring_invariants_under_random_push_sizes(capacity, sizes):
    buf = _make(capacity)
    pushed = 0
    for size in sizes:
        cursor = buf._cursor
        buf.push_many(_batch(range(pushed, pushed + size)))
        pushed += size
        assert len(buf) == min(pushed, capacity) <= capacity
        assert buf._cursor == (cursor + min(size, capacity)) % capacity
        # oldest to newest, starting at the cursor once the ring is full
        order = (buf._cursor - len(buf) + np.arange(len(buf))) % capacity
        newest = np.arange(pushed - len(buf), pushed, dtype=float)
        for column in (buf._v, buf._xa[:, 0], buf._vx[:, 0], buf._xk[:, 0]):
            np.testing.assert_array_equal(column[order], newest)
