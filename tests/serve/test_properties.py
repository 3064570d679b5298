"""Property suites (200 ``hypothesis`` examples each) over the serving
control plane.

Three invariants, driven with the scripted
:class:`~tests.serve.helpers.CountingDecoder` so each example costs
microseconds, not model math:

1. **No silent drops** — every admitted request reaches exactly one
   terminal state, and every drop has a recorded ``slo_expired`` event.
2. **Eviction safety** — the cache never evicts a pinned (active-batch)
   entry or reassigns its arena slot, no two residents share a slot,
   and residency never exceeds the budget, under random
   put/get/pin/release/rank-loss plans.
3. **Token conservation** — total decoded tokens equals the sum of
   per-request emissions, under random arrival plans and fault
   injection (rank loss mid-flight included).
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.cluster.communicator import Communicator
from repro.cluster.failures import ChaosCommunicator, FaultPlan
from repro.serve import (
    RecurrentStateCache,
    ServeConfig,
    ServeRequest,
    ServingEngine,
)

from .helpers import CountingDecoder

N_CASES = 200


def random_requests(rng, n, with_slo=False):
    requests = []
    for rid in range(n):
        slo = float(rng.uniform(0.005, 0.2)) if with_slo and rng.random() < 0.5 else float("inf")
        requests.append(
            ServeRequest(
                request_id=rid,
                prompt=rng.integers(0, 16, size=int(rng.integers(1, 6))).astype(np.int64),
                max_new_tokens=int(rng.integers(1, 8)),
                arrival_s=float(rng.uniform(0.0, 0.3)),
                slo_s=slo,
            )
        )
    return requests


def build_engine(rng, world, max_batch, budget_states, drop=True, plan=None):
    config = ServeConfig(
        max_batch=max_batch,
        seed=int(rng.integers(0, 2**31)),
        drop_expired=drop,
        cache_budget_bytes=budget_states * 8,
        decode_token_s=5e-3,
        prefill_token_s=2e-3,
    )
    if plan is not None:
        comm = ChaosCommunicator(world, plan=plan)
    else:
        comm = Communicator(world)
    return ServingEngine(CountingDecoder(), comm, config)


class TestNoSilentDrops:
    """Property 1: admitted requests never vanish without an event."""

    @given(
        n=st.integers(1, 15),
        world=st.integers(1, 3),
        max_batch=st.integers(1, 4),
        budget_states=st.integers(5, 39),
        drop=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=N_CASES)
    def test_property(self, n, world, max_batch, budget_states, drop, seed):
        rng = np.random.default_rng(seed)
        requests = random_requests(rng, n, with_slo=True)
        engine = build_engine(rng, world, max_batch, budget_states, drop)
        report = engine.run(requests)
        sched = engine.scheduler

        all_ids = {r.request_id for r in requests}
        finished = set(sched.finished)
        dropped = set(sched.dropped)
        # exact partition: every request terminal, no overlap, none extra
        assert finished | dropped == all_ids
        assert not (finished & dropped)
        assert len(report.requests) == len(all_ids)

        # every drop is announced, and only under the deadline policy
        expiry_events = {
            rid for kind, rid, _ in sched.events if kind == "slo_expired"
        }
        assert dropped == expiry_events
        if not drop:
            assert not dropped
        for record in report.requests:
            if record.dropped:
                assert record.request_id in expiry_events
            else:
                assert record.finish_reason in ("eos", "length")
                assert len(record.tokens) >= 1


class TestEvictionSafety:
    """Property 2: pinned entries and their arena slots survive any plan."""

    @given(
        budget_states=st.integers(1, 11),
        n_ops=st.integers(1, 119),
        id_space=st.integers(1, 19),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=N_CASES)
    def test_property(self, budget_states, n_ops, id_space, seed):
        rng = np.random.default_rng(seed)
        budget = budget_states * 8
        cache = RecurrentStateCache(budget, (np.zeros(1),))
        pinned: dict[int, int] = {}  # request id -> the slot it was pinned in
        resident: set[int] = set()
        for _ in range(n_ops):
            rid = int(rng.integers(0, id_space))
            op = rng.random()
            if op < 0.4:
                want_pin = rng.random() < 0.3
                if want_pin and (len(pinned.keys() - {rid}) + 1) * 8 > budget:
                    want_pin = False  # a legal driver never over-pins
                pinned.pop(rid, None)  # a put replaces: the old slot is freed
                entry = cache.put(rid, n_consumed=1, pinned=want_pin)
                if entry is not None:
                    cache.store([entry.slot], (np.array([[float(rid)]]),))
                    resident.add(rid)
                    if want_pin:
                        pinned[rid] = entry.slot
                else:
                    assert not want_pin  # only unpinned puts may be refused
                    resident.discard(rid)
            elif op < 0.6:
                entry = cache.get(rid)
                assert (entry is not None) == (rid in resident)
            elif op < 0.75 and rid in resident:
                cache.pin(rid)
                pinned[rid] = cache.peek(rid).slot
            elif op < 0.95:
                cache.release(rid)
                resident.discard(rid)
                pinned.pop(rid, None)
            else:
                # rank loss: the dead replica's request goes, the rest re-charge
                cache.release(rid)
                resident.discard(rid)
                pinned.pop(rid, None)
                cache.rebind(None)

            # puts may have evicted unpinned entries: sync the shadow set
            resident = {r for r in resident if r in cache}

            # the invariants under test
            assert cache.resident_bytes <= budget
            for pinned_id, slot in pinned.items():
                assert pinned_id in cache, (
                    f"pinned request {pinned_id} was evicted"
                )
                assert cache.peek(pinned_id).slot == slot, (
                    f"pinned request {pinned_id} changed slot"
                )
            entries = [cache.peek(r) for r in resident]
            assert len(entries) == len(cache)
            slots = [e.slot for e in entries]
            assert len(set(slots)) == len(slots), "two residents share a slot"
            assert all(0 <= slot < budget_states for slot in slots)
            # nobody else wrote into a resident's rows
            (rows,) = cache.rows(slots)
            assert rows[:, 0].tolist() == [float(e.request_id) for e in entries]
            assert cache.resident_bytes == sum(
                part[e.slot].nbytes for e in entries for part in cache.arena
            )
        for kind, rid in cache.events:
            if kind == "evict":
                assert rid is not None  # evictions are always recorded

    def test_pinned_entries_survive_under_minimal_budget(self):
        # Directed worst case: budget exactly one state, pinned occupant.
        cache = RecurrentStateCache(8, (np.zeros(1),))
        cache.put(0, 1, pinned=True)
        assert not cache.put(1, 1)
        assert 0 in cache and cache.evictions == 0


class TestTokenConservation:
    """Property 3: Σ per-request emissions == total under random plans."""

    @given(
        n=st.integers(1, 13),
        world=st.integers(1, 3),
        n_loss=st.integers(0, 1),
        max_batch=st.integers(1, 4),
        budget_states=st.integers(5, 39),
        n_transient=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=N_CASES)
    def test_property(
        self, n, world, n_loss, max_batch, budget_states, n_transient, seed
    ):
        assume(world > n_loss)  # a rank loss needs a world it can shrink
        rng = np.random.default_rng(seed)
        requests = random_requests(rng, n)
        plan = None
        if n_transient or n_loss:
            plan = FaultPlan.random(
                seed=int(rng.integers(0, 2**31)),
                world_size=world,
                num_collectives=40,
                n_transient=n_transient,
                n_rank_loss=n_loss,
            )
        engine = build_engine(rng, world, max_batch, budget_states, plan=plan)
        report = engine.run(requests)

        expected = {r.request_id: r.max_new_tokens for r in requests}
        per_request = {r.request_id: len(r.tokens) for r in report.requests}
        # conservation: the report's total is exactly the per-request sum
        assert report.total_tokens == sum(per_request.values())
        # nothing lost to faults: every request emits its full budget
        # (no EOS, no drop policy in this property)
        assert per_request == expected
        for record in report.requests:
            assert record.finish_reason == "length"
            assert len(record.token_times_s) == len(record.tokens)
            times = record.token_times_s
            assert all(b >= a for a, b in zip(times, times[1:]))
            assert times[0] >= record.arrival_s
        if n_loss:
            assert engine.generations >= 1  # recovery path did not wedge
