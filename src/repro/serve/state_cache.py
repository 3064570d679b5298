"""Per-request recurrent-state cache: LRU under a simulated memory budget.

Autoregressive decode over an RNN needs one small state per request
(``(h, c)`` for the LSTM, ``s`` for the RHN) instead of a growing KV
cache — but the same serving problems apply: states of requests waiting
in the queue compete for device memory with states of the active batch.
The cache holds both kinds:

* **pinned** entries belong to requests currently in the active batch;
  they are never eviction candidates (the scheduler releases them on
  retire or preemption) — the invariant the property suite drives 200
  random plans against;
* **unpinned** entries are speculative: prefilled-ahead queued requests
  keep their state here so admission is instant on a hit; under budget
  pressure they are evicted least-recently-used and transparently
  recomputed from the request's token history on admission (bit-exact,
  because the decode kernel is batch-invariant).

The states live in a slot-indexed **arena** — one ``(capacity, ...)``
array per state component — and an entry holds a slot, not arrays:
admit, hit, evict and release are slot assignments, and a decode step
is one fancy-index gather and scatter (``rows`` / ``store``).

Every resident byte is charged to the simulated devices (tag
``serve-cache:<rid>``), so serving memory shows up in the same
``peak_bytes`` accounting the training paths use; every admit / evict /
hit / miss / release is appended to :attr:`RecurrentStateCache.events`
for the test harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError

__all__ = ["CacheEntry", "CacheOverflowError", "RecurrentStateCache"]


class CacheOverflowError(ReproError, MemoryError):
    """Raised when pinned entries alone exceed the cache budget.

    Pinned state cannot be evicted, so this is a configuration error:
    the admission policy sized the active batch beyond what the budget
    can hold.  The engine validates ``max_batch * state_nbytes`` against
    the budget up front to keep this unreachable in normal operation.
    """


@dataclass
class CacheEntry:
    """One resident recurrent state: row ``slot`` of every arena component.

    ``n_consumed`` counts the tokens folded into the state (prompt plus
    emitted), so a hit can verify the state is current before reuse.
    """

    request_id: int
    slot: int
    n_consumed: int
    pinned: bool = False
    handles: list[tuple[object, int]] = field(default_factory=list, repr=False)


class RecurrentStateCache:
    """LRU cache of per-request decoder states under a byte budget.

    Parameters
    ----------
    budget_bytes:
        Total resident-state budget; the arena has one slot per state
        that fits.  Eviction reclaims unpinned entries least-recently-used
        until a slot is free; a put that still finds none raises
        :class:`CacheOverflowError` when pinned, and is refused (entry
        not cached, ``"refused"`` event) when speculative.
    state_like:
        One request's state (the decoder's ``init_state()``): fixes each
        arena component's row shape and dtype.
    devices:
        Optional simulated devices to charge resident bytes to (each
        entry is replicated to every device, matching the simulator's
        replica model).  ``None`` skips memory charging (pure-logic
        property tests).
    """

    def __init__(self, budget_bytes: int, state_like, devices=None):
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = int(budget_bytes)
        self.state_nbytes = int(sum(row.nbytes for row in state_like))
        capacity = self.budget_bytes // self.state_nbytes
        self.arena = tuple(
            np.zeros((capacity,) + row.shape, row.dtype) for row in state_like
        )
        self._free = list(range(capacity - 1, -1, -1))  # pop() hands out slot 0 first
        self.devices = list(devices) if devices is not None else []
        self._entries: dict[int, CacheEntry] = {}  # insertion = LRU order
        self.events: list[tuple[str, int]] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Total bytes currently held."""
        return len(self._entries) * self.state_nbytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, request_id: int) -> bool:
        return request_id in self._entries

    def _charge(self, entry: CacheEntry) -> None:
        tag = f"serve-cache:{entry.request_id}"
        for dev in self.devices:
            entry.handles.append((dev, dev.alloc(self.state_nbytes, tag=tag)))

    def _discharge(self, entry: CacheEntry) -> None:
        for dev, handle in entry.handles:
            dev.free(handle)
        entry.handles.clear()

    def rows(self, slots: list[int]) -> tuple[np.ndarray, ...]:
        """Gather the batched ``(len(slots), ...)`` states of ``slots``."""
        return tuple(part[slots] for part in self.arena)

    def store(self, slots: list[int], states: tuple[np.ndarray, ...]) -> None:
        """Scatter batched states back into ``slots``, row for row."""
        for part, rows in zip(self.arena, states):
            part[slots] = rows

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------

    def put(
        self, request_id: int, n_consumed: int, pinned: bool = False
    ) -> CacheEntry | None:
        """Assign the request a slot (replacing any it held); returns its entry.

        The caller writes the state into the slot (:meth:`store`).
        Evicts LRU unpinned entries until a slot is free; a pinned put
        that still finds none raises :class:`CacheOverflowError`, an
        unpinned one is refused and ``None`` returned.
        """
        self.release(request_id, _event=False)
        while not self._free and self._evict_lru() is not None:
            pass
        if not self._free:
            if pinned:
                raise CacheOverflowError(
                    f"pinned state for request {request_id} needs a slot, "
                    f"and all {len(self._entries)} hold pinned states"
                )
            self.events.append(("refused", request_id))
            return None
        entry = CacheEntry(request_id, self._free.pop(), int(n_consumed), pinned)
        self._charge(entry)
        self._entries[request_id] = entry
        self.events.append(("admit", request_id))
        return entry

    def peek(self, request_id: int) -> CacheEntry | None:
        """Look up a state without touching LRU order or hit statistics.

        The engine's per-step read of the active rows' slots: pinned
        entries are not eviction candidates, so refreshing their LRU
        position would only distort the hit/miss accounting.
        """
        return self._entries.get(request_id)

    def get(self, request_id: int) -> CacheEntry | None:
        """Look up a state, refreshing its LRU position.

        Counts a hit or miss; returns ``None`` on miss (the caller
        recomputes from the token history).
        """
        entry = self._entries.pop(request_id, None)
        if entry is None:
            self.misses += 1
            self.events.append(("miss", request_id))
            return None
        self._entries[request_id] = entry  # move to MRU position
        self.hits += 1
        self.events.append(("hit", request_id))
        return entry

    def pin(self, request_id: int) -> None:
        """Mark a resident entry as active-batch (never evictable)."""
        self._entries[request_id].pinned = True

    def release(self, request_id: int, _event: bool = True) -> None:
        """Drop a request's state outright (retire, drop, or rank loss)."""
        entry = self._entries.pop(request_id, None)
        if entry is None:
            return
        self._discharge(entry)
        self._free.append(entry.slot)
        if _event:
            self.events.append(("release", request_id))

    def _evict_lru(self) -> int | None:
        """Evict the least-recently-used unpinned entry, if any."""
        for request_id, entry in self._entries.items():
            if not entry.pinned:
                del self._entries[request_id]
                self._discharge(entry)
                self._free.append(entry.slot)
                self.evictions += 1
                self.events.append(("evict", request_id))
                return request_id
        return None

    def rebind(self, devices) -> None:
        """Re-charge resident entries to a new device set (world shrink).

        A resilient engine rebuilds its communicator after a rank loss;
        surviving states move their memory charges to the new devices.
        """
        for entry in self._entries.values():
            self._discharge(entry)
        self.devices = list(devices) if devices is not None else []
        for entry in self._entries.values():
            self._charge(entry)
        self.events.append(("rebind", -1))
