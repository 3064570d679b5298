"""State-cache unit tests: LRU, pinning, budgets, device charging."""

import numpy as np
import pytest

from repro.cluster.device import TITAN_X, SimulatedDevice
from repro.serve import CacheOverflowError, RecurrentStateCache


def state(fill: float, n: int = 4) -> tuple[np.ndarray, ...]:
    return (np.full(n, fill),)  # 4 float64 = 32 bytes


STATE_BYTES = 32


def make_cache(budget: int, devices=None) -> RecurrentStateCache:
    return RecurrentStateCache(budget, state(0.0), devices)


class TestBasics:
    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            make_cache(0)

    def test_put_get_roundtrip(self):
        cache = make_cache(1024)
        slot = cache.put(1, n_consumed=3).slot
        cache.store([slot], (state(1.5)[0][np.newaxis],))
        entry = cache.get(1)
        assert entry is not None
        assert entry.n_consumed == 3 and entry.slot == slot
        (rows,) = cache.rows([entry.slot])
        np.testing.assert_array_equal(rows[0], state(1.5)[0])
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counted(self):
        cache = make_cache(1024)
        assert cache.get(99) is None
        assert cache.misses == 1
        assert ("miss", 99) in cache.events

    def test_peek_no_stats_no_lru(self):
        cache = make_cache(1024)
        cache.put(1, 1)
        cache.put(2, 1)
        assert cache.peek(1) is not None
        assert cache.peek(42) is None
        assert cache.hits == 0 and cache.misses == 0
        # peek did not refresh id 1, so it is still the LRU victim
        cache.put(3, 1)
        small = make_cache(2 * STATE_BYTES)
        small.put(1, 1)
        small.put(2, 1)
        small.peek(1)
        small.put(3, 1)
        assert 1 not in small and 2 in small

    def test_replace_same_id(self):
        cache = make_cache(1024)
        cache.put(1, 1)
        cache.put(1, 2)
        assert len(cache) == 1
        assert cache.resident_bytes == STATE_BYTES
        assert cache.peek(1).n_consumed == 2

    def test_release_removes(self):
        cache = make_cache(1024)
        cache.put(1, 1)
        cache.release(1)
        assert 1 not in cache
        assert ("release", 1) in cache.events
        cache.release(1)  # idempotent on absent ids


class TestEviction:
    def test_lru_order(self):
        cache = make_cache(2 * STATE_BYTES)
        cache.put(1, 1)
        cache.put(2, 1)
        cache.get(1)  # refresh: 2 becomes LRU
        cache.put(3, 1)
        assert 2 not in cache and 1 in cache and 3 in cache
        assert cache.evictions == 1
        assert ("evict", 2) in cache.events

    def test_pinned_never_evicted(self):
        cache = make_cache(2 * STATE_BYTES)
        cache.put(1, 1, pinned=True)
        cache.put(2, 1)
        cache.put(3, 1)  # must evict 2, not pinned 1
        assert 1 in cache and 2 not in cache and 3 in cache

    def test_unpinned_overflow_refused(self):
        cache = make_cache(2 * STATE_BYTES)
        cache.put(1, 1, pinned=True)
        cache.put(2, 1, pinned=True)
        assert not cache.put(3, 1)
        assert 3 not in cache
        assert ("refused", 3) in cache.events

    def test_pinned_overflow_raises(self):
        cache = make_cache(2 * STATE_BYTES)
        cache.put(1, 1, pinned=True)
        cache.put(2, 1, pinned=True)
        with pytest.raises(CacheOverflowError):
            cache.put(3, 1, pinned=True)

    def test_unpin_reopens_eviction(self):
        cache = make_cache(2 * STATE_BYTES)
        cache.put(1, 1, pinned=True)
        cache.put(2, 1, pinned=True)
        cache.unpin(1)
        assert cache.put(3, 1)
        assert 1 not in cache

    def test_pinned_bytes_tracked(self):
        cache = make_cache(1024)
        cache.put(1, 1, pinned=True)
        cache.put(2, 1)
        assert cache.pinned_bytes == STATE_BYTES
        assert cache.resident_bytes == 2 * STATE_BYTES
        cache.pin(2)
        assert cache.pinned_bytes == 2 * STATE_BYTES


class TestDeviceCharging:
    def test_alloc_and_free_on_devices(self):
        devices = [SimulatedDevice(r, TITAN_X) for r in range(2)]
        cache = make_cache(1024, devices)
        cache.put(1, 1)
        assert all(d.peak_bytes >= STATE_BYTES for d in devices)
        used_before = [d.peak_bytes for d in devices]
        cache.release(1)
        cache.put(2, 1)
        cache.release(2)
        # freeing returned the bytes: peak did not double
        assert [d.peak_bytes for d in devices] == used_before

    def test_rebind_moves_charges(self):
        old = [SimulatedDevice(0, TITAN_X)]
        new = [SimulatedDevice(0, TITAN_X)]
        cache = make_cache(1024, old)
        cache.put(1, 1)
        cache.rebind(new)
        assert new[0].peak_bytes >= STATE_BYTES
        assert ("rebind", -1) in cache.events
        cache.release(1)  # frees on the new devices without error
