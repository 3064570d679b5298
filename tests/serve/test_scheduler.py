"""Scheduler unit tests: admission, retirement, deadline drops, readmission."""

import numpy as np
import pytest

from repro.serve import ContinuousBatchingScheduler, RequestState, ServeRequest


def req(rid, arrival=0.0, max_new=4, slo=float("inf"), eos=None):
    return ServeRequest(
        request_id=rid,
        prompt=np.array([1, 2], dtype=np.int64),
        max_new_tokens=max_new,
        arrival_s=arrival,
        slo_s=slo,
        eos_token=eos,
    )


class TestConstruction:
    def test_nonpositive_max_batch_rejected(self):
        with pytest.raises(ValueError):
            ContinuousBatchingScheduler([req(0)], max_batch=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ContinuousBatchingScheduler([req(0), req(0)], max_batch=2)

    def test_queue_ordered_by_arrival_then_id(self):
        sched = ContinuousBatchingScheduler(
            [req(3, arrival=1.0), req(1, arrival=0.5), req(2, arrival=0.5)],
            max_batch=2,
        )
        assert sched.queued_ids() == (1, 2, 3)


class TestAdmission:
    def test_fifo_fill_up_to_max_batch(self):
        sched = ContinuousBatchingScheduler([req(i) for i in range(5)], 3)
        admitted, dropped = sched.poll(0.0)
        assert admitted == [0, 1, 2] and dropped == []
        assert sched.active == [0, 1, 2]
        assert sched.queued_ids() == (3, 4)

    def test_future_arrivals_not_admitted(self):
        sched = ContinuousBatchingScheduler(
            [req(0, arrival=0.0), req(1, arrival=5.0)], 4
        )
        admitted, _ = sched.poll(1.0)
        assert admitted == [0]
        assert sched.next_arrival_s(1.0) == 5.0
        assert sched.next_arrival_s(10.0) is None

    def test_retired_slot_refills(self):
        sched = ContinuousBatchingScheduler([req(i, max_new=1) for i in range(3)], 1)
        sched.poll(0.0)
        assert sched.active == [0]
        assert sched.record_token(0, 7, 0.1) == "length"
        admitted, _ = sched.poll(0.2)
        assert admitted == [1]


class TestRetirement:
    def test_length_retirement(self):
        sched = ContinuousBatchingScheduler([req(0, max_new=2)], 1)
        sched.poll(0.0)
        assert sched.record_token(0, 5, 0.1) is None
        assert sched.record_token(0, 6, 0.2) == "length"
        rec = sched.records[0]
        assert rec.state is RequestState.FINISHED
        assert rec.emitted == [5, 6]
        assert rec.token_times_s == [0.1, 0.2]
        assert rec.finish_s == 0.2
        assert ("finish", 0, 0.2) in sched.events
        assert sched.done

    def test_eos_retirement(self):
        sched = ContinuousBatchingScheduler([req(0, max_new=10, eos=9)], 1)
        sched.poll(0.0)
        assert sched.record_token(0, 9, 0.1) == "eos"
        assert sched.records[0].finish_reason == "eos"

    def test_token_on_inactive_request_rejected(self):
        sched = ContinuousBatchingScheduler([req(0), req(1)], 1)
        sched.poll(0.0)
        with pytest.raises(ValueError):
            sched.record_token(1, 5, 0.1)


class TestDeadlinePolicy:
    def test_expired_queued_request_dropped_with_event(self):
        sched = ContinuousBatchingScheduler(
            [req(0, slo=1.0), req(1, slo=1.0)], max_batch=1
        )
        sched.poll(0.0)  # 0 admitted, 1 queued
        _, dropped = sched.poll(2.0)
        assert dropped == [1]
        rec = sched.records[1]
        assert rec.state is RequestState.DROPPED
        assert rec.finish_reason == "slo_expired"
        assert ("slo_expired", 1, 2.0) in sched.events

    def test_admitted_requests_never_dropped(self):
        sched = ContinuousBatchingScheduler([req(0, slo=0.5)], 1)
        sched.poll(0.0)
        _, dropped = sched.poll(10.0)
        assert dropped == []
        assert sched.records[0].state is RequestState.ACTIVE

    def test_drop_disabled(self):
        sched = ContinuousBatchingScheduler(
            [req(0, slo=0.5), req(1, slo=0.5)], 1, drop_expired=False
        )
        sched.poll(0.0)
        _, dropped = sched.poll(10.0)
        assert dropped == []
        assert 1 in sched.queued_ids()

    def test_unarrived_request_not_dropped(self):
        sched = ContinuousBatchingScheduler([req(0, arrival=5.0, slo=0.1)], 1)
        _, dropped = sched.poll(1.0)
        assert dropped == []


class TestReadmission:
    def test_readmit_to_queue_head_keeps_tokens(self):
        sched = ContinuousBatchingScheduler([req(i, max_new=5) for i in range(3)], 2)
        sched.poll(0.0)  # active: 0, 1; queued: 2
        sched.record_token(0, 4, 0.1)
        sched.readmit(0, 0.2)
        assert sched.queued_ids() == (0, 2)
        rec = sched.records[0]
        assert rec.state is RequestState.QUEUED
        assert rec.emitted == [4]
        assert rec.readmissions == 1
        assert rec.consumed_tokens == [1, 2, 4]
        assert ("readmitted", 0, 0.2) in sched.events
        admitted, _ = sched.poll(0.3)
        assert admitted == [0]  # head of queue wins the free slot

    def test_readmit_inactive_rejected(self):
        sched = ContinuousBatchingScheduler([req(0), req(1)], 1)
        sched.poll(0.0)
        with pytest.raises(ValueError):
            sched.readmit(1, 0.1)


class BruteForceScheduler(ContinuousBatchingScheduler):
    """The queue walks as full scans: no prefix invariant assumed."""

    def arrived_ids(self, now):
        return [
            rid for rid in self._queue
            if self.records[rid].request.arrival_s <= now
        ]

    def next_arrival_s(self, now):
        future = [
            self.records[rid].request.arrival_s
            for rid in self._queue
            if self.records[rid].request.arrival_s > now
        ]
        return min(future) if future else None

    def poll(self, now):
        dropped, admitted = [], []
        for rid in list(self._queue):
            rec = self.records[rid]
            if (
                self.drop_expired
                and rec.request.arrival_s <= now
                and rec.request.deadline_s < now
            ):
                self._queue.remove(rid)
                rec.state = RequestState.DROPPED
                rec.finish_reason = "slo_expired"
                rec.finish_s = now
                self.dropped.append(rid)
                self.events.append(("slo_expired", rid, now))
                dropped.append(rid)
        for rid in list(self._queue):
            if len(self.active) >= self.max_batch:
                break
            rec = self.records[rid]
            if rec.request.arrival_s > now:
                continue
            self._queue.remove(rid)
            rec.state = RequestState.ACTIVE
            self.active.append(rid)
            self.events.append(("admit", rid, now))
            admitted.append(rid)
        return admitted, dropped


class TestArrivedPrefixInvariant:
    def test_events_equal_brute_force_scan(self):
        # Random plans with a non-decreasing clock, retirements and
        # readmissions: stopping at the first future arrival must make
        # every decision the full scan makes.
        for case in range(100):
            rng = np.random.default_rng((404, case))
            requests = [
                req(
                    rid,
                    arrival=float(rng.uniform(0.0, 1.0)),
                    max_new=int(rng.integers(1, 5)),
                    slo=float(rng.uniform(0.05, 0.5)) if rng.random() < 0.5 else float("inf"),
                )
                for rid in range(int(rng.integers(1, 20)))
            ]
            kwargs = dict(
                max_batch=int(rng.integers(1, 5)), drop_expired=bool(rng.random() < 0.5)
            )
            fast = ContinuousBatchingScheduler(requests, **kwargs)
            brute = BruteForceScheduler(requests, **kwargs)
            now = 0.0
            while not fast.done:
                now += float(rng.exponential(0.05))
                assert fast.poll(now) == brute.poll(now)
                assert fast.arrived_ids(now) == brute.arrived_ids(now)
                assert fast.next_arrival_s(now) == brute.next_arrival_s(now)
                for rid in list(fast.active):
                    roll = rng.random()
                    if roll < 0.6:
                        for sched in (fast, brute):
                            sched.record_token(rid, 0, now)
                    elif roll < 0.75:
                        for sched in (fast, brute):
                            sched.readmit(rid, now)
                assert fast.queued_ids() == brute.queued_ids()
            assert fast.events == brute.events and brute.done
