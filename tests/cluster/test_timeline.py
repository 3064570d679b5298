"""Tests for the per-rank two-stream timeline."""

import pytest

from repro.cluster import (
    COMM_STREAM,
    COMPUTE_STREAM,
    Timeline,
    events_to_chrome,
    inject_straggler,
)


class TestComputeStream:
    def test_compute_advances_one_rank_only(self):
        tl = Timeline(2)
        event = tl.record_compute(0, 1.5, name="bwd")
        assert (event.start, event.end) == (0.0, 1.5)
        assert tl.compute_clock == [1.5, 0.0]

    def test_compute_scale_stretches_durations(self):
        tl = Timeline(2)
        tl.set_compute_scale(1, 2.0)
        tl.record_compute(0, 1.0)
        tl.record_compute(1, 1.0)
        assert tl.compute_clock == [1.0, 2.0]

    def test_inject_straggler_wraps_scale(self):
        tl = inject_straggler(Timeline(3), 2, 1.5)
        tl.record_compute(2, 2.0)
        assert tl.compute_clock[2] == 3.0

    def test_record_compute_all_is_the_rank_order_loop(self):
        """Same clocks, busy totals and journal as the spelled-out loop,
        with one rank stretched by an injected straggler."""
        looped = inject_straggler(Timeline(4), 2, 1.7)
        charged = inject_straggler(Timeline(4), 2, 1.7)
        for tl in (looped, charged):
            tl.record_compute(1, 0.3, name="skew")
            tl.complete(tl.schedule_collective(0.25, name="ar"))
        for rank in range(4):
            looped.record_compute(rank, 0.4, name="bwd")
        assert charged.record_compute_all(0.4, name="bwd") is None
        assert charged.compute_clock == looped.compute_clock
        assert charged._busy_compute == looped._busy_compute
        assert charged._journal == looped._journal
        assert charged.events == looped.events
        assert charged.makespan == looped.makespan

    def test_inject_straggler_rejects_speedup(self):
        with pytest.raises(ValueError):
            inject_straggler(Timeline(2), 0, 0.5)

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Timeline(1).record_compute(0, -1.0)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            Timeline(2).record_compute(2, 1.0)


class TestCollectiveScheduling:
    def test_collective_starts_at_slowest_issue_point(self):
        """Rule 1: start >= max participant compute clock."""
        tl = Timeline(2)
        tl.record_compute(0, 1.0)
        tl.record_compute(1, 3.0)
        ticket = tl.schedule_collective(0.5, name="ar")
        assert ticket.start == 3.0
        assert ticket.end == 3.5

    def test_link_serializes_collectives_in_issue_order(self):
        """Rule 2: one shared ring link."""
        tl = Timeline(2)
        t1 = tl.schedule_collective(1.0)
        t2 = tl.schedule_collective(1.0)
        assert (t1.start, t1.end) == (0.0, 1.0)
        assert (t2.start, t2.end) == (1.0, 2.0)

    def test_complete_blocks_compute_until_end(self):
        """Rule 3: wait() advances the compute clock to the end."""
        tl = Timeline(2)
        ticket = tl.schedule_collective(2.0)
        tl.record_compute(0, 0.5)
        tl.complete(ticket)
        assert tl.compute_clock == [2.0, 2.0]

    def test_complete_is_idempotent_and_never_rewinds(self):
        tl = Timeline(1)
        ticket = tl.schedule_collective(1.0)
        tl.complete(ticket)
        tl.record_compute(0, 5.0)
        tl.complete(ticket)
        assert tl.compute_clock[0] == 6.0

    def test_subgroup_collective_ignores_other_ranks(self):
        tl = Timeline(3)
        tl.record_compute(2, 10.0)
        ticket = tl.schedule_collective(1.0, ranks=[0, 1])
        assert ticket.start == 0.0
        assert tl.comm_clock == [1.0, 1.0, 0.0]

    def test_empty_participants_rejected(self):
        with pytest.raises(ValueError):
            Timeline(2).schedule_collective(1.0, ranks=[])


class TestMeasurement:
    def test_makespan_covers_both_streams(self):
        tl = Timeline(2)
        tl.record_compute(0, 1.0)
        tl.schedule_collective(5.0)
        assert tl.makespan == 6.0

    def test_mark_and_elapsed(self):
        tl = Timeline(1)
        tl.record_compute(0, 2.0)
        mark = tl.mark()
        tl.record_compute(0, 3.0)
        assert tl.elapsed_since(mark) == 3.0

    def test_busy_time_by_stream(self):
        tl = Timeline(2)
        tl.record_compute(0, 1.0)
        tl.record_compute(0, 2.0)
        tl.schedule_collective(4.0)
        assert tl.busy_time(0, COMPUTE_STREAM) == 3.0
        assert tl.busy_time(0, COMM_STREAM) == 4.0
        assert tl.busy_time(1, COMPUTE_STREAM) == 0.0

    def test_exposed_comm_time_zero_with_perfect_overlap(self):
        tl = Timeline(1)
        ticket = tl.schedule_collective(1.0)
        tl.record_compute(0, 2.0)
        tl.complete(ticket)
        assert tl.makespan == tl.busy_time(0, COMPUTE_STREAM)

    def test_exposed_comm_time_counts_unhidden_comm(self):
        tl = Timeline(1)
        tl.record_compute(0, 1.0)
        ticket = tl.schedule_collective(3.0)
        tl.complete(ticket)
        exposed = tl.makespan - tl.busy_time(0, COMPUTE_STREAM)
        assert exposed == pytest.approx(3.0)


class TestChromeTrace:
    def test_trace_has_per_rank_pids_and_per_stream_tids(self):
        tl = Timeline(2)
        tl.record_compute(1, 1.0, name="bwd")
        tl.schedule_collective(0.5, name="ar")
        trace = events_to_chrome(tl.events)
        compute = [t for t in trace if t["cat"] == COMPUTE_STREAM]
        comm = [t for t in trace if t["cat"] == COMM_STREAM]
        assert len(compute) == 1 and compute[0]["pid"] == 1
        assert compute[0]["tid"] == 0
        assert {t["pid"] for t in comm} == {0, 1}
        assert all(t["tid"] == 1 for t in comm)

    def test_trace_durations_microseconds(self):
        tl = Timeline(1)
        tl.record_compute(0, 0.002)
        (entry,) = events_to_chrome(tl.events)
        assert entry["dur"] == pytest.approx(2000.0)
