"""Tests for the non-blocking collective engine (WorkHandle + i*)."""

import numpy as np
import pytest

from repro.cluster import (
    Communicator,
    DeviceSpec,
    RankFailureError,
    Timeline,
)
from ..helpers import crashing_comm

BIG_DEVICE = DeviceSpec(name="roomy", memory_bytes=10**9, peak_flops=1e12)


def arrays_for(world, shape=(8,), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for _ in range(world)]


class TestHandleSemantics:
    def test_results_match_blocking(self):
        arrays = arrays_for(3)
        async_out = Communicator(3, track_memory=False).iallreduce(arrays).wait()
        blocking_out = Communicator(3, track_memory=False).allreduce(arrays)
        for a, b in zip(async_out, blocking_out):
            np.testing.assert_array_equal(a, b)

    def test_handle_is_pending_until_wait(self):
        comm = Communicator(2, track_memory=False)
        handle = comm.iallgather(arrays_for(2))
        assert comm.pending_work == (handle,)
        handle.wait()
        assert comm.pending_work == ()

    def test_wait_is_idempotent(self):
        comm = Communicator(2, track_memory=False)
        handle = comm.iallgather(arrays_for(2))
        first = handle.wait()
        assert handle.wait() is first

    def test_every_op_has_an_async_variant(self):
        comm = Communicator(2, track_memory=False)
        arrays = arrays_for(2, (4,))
        for issue in (
            comm.iallreduce,
            comm.iallgather,
            comm.ireduce_scatter,
        ):
            assert issue(arrays).wait() is not None

    def test_pending_work_and_wait_all(self):
        comm = Communicator(2, track_memory=False)
        h1 = comm.iallreduce(arrays_for(2))
        h2 = comm.iallgather(arrays_for(2))
        assert set(comm.pending_work) == {h1, h2}
        assert comm.wait_all() == 2
        assert comm.pending_work == ()
        assert comm.wait_all() == 0


class TestScratchLifetime:
    def test_scratch_held_until_wait(self):
        comm = Communicator(2, device_spec=BIG_DEVICE)
        handle = comm.iallreduce(arrays_for(2, (100,)))
        in_use = [dev.bytes_in_use for dev in comm.devices]
        assert all(b == 800 for b in in_use)
        handle.wait()
        assert all(dev.bytes_in_use == 0 for dev in comm.devices)

    def test_in_flight_scratch_sums_pending(self):
        comm = Communicator(2, device_spec=BIG_DEVICE)
        h1 = comm.iallreduce(arrays_for(2, (100,)))  # 800 B recv scratch
        h2 = comm.iallgather(arrays_for(2, (50,)))  # 2*400 B gathered
        assert comm.in_flight_scratch_bytes == 800 + 800
        h1.wait()
        assert comm.in_flight_scratch_bytes == 800
        h2.wait()
        assert comm.in_flight_scratch_bytes == 0

    def test_in_flight_scratch_zero_without_tracking(self):
        comm = Communicator(2, track_memory=False)
        handle = comm.iallreduce(arrays_for(2))
        assert comm.in_flight_scratch_bytes == 0
        handle.wait()

    def test_overlapped_issues_stack_scratch(self):
        """Two pending collectives hold both scratch buffers at once —
        the memory cost of overlap the blocking schedule never pays."""
        blocking = Communicator(2, device_spec=BIG_DEVICE)
        blocking.allreduce(arrays_for(2, (100,)))
        blocking.allreduce(arrays_for(2, (100,)))
        overlapped = Communicator(2, device_spec=BIG_DEVICE)
        h1 = overlapped.iallreduce(arrays_for(2, (100,)))
        h2 = overlapped.iallreduce(arrays_for(2, (100,)))
        h1.wait()
        h2.wait()
        assert blocking.peak_bytes_per_rank == 800
        assert overlapped.peak_bytes_per_rank == 1600

    def test_reset_peaks_reports_in_flight_scratch(self):
        comm = Communicator(2, device_spec=BIG_DEVICE)
        handle = comm.iallreduce(arrays_for(2, (100,)))
        assert comm.reset_peaks() == 800
        # The floor after reset is the still-pending scratch.
        assert comm.peak_bytes_per_rank == 800
        handle.wait()
        assert comm.reset_peaks() == 0
        assert comm.peak_bytes_per_rank == 0


class TestTimelineIntegration:
    def test_issue_places_collective_and_wait_blocks_compute(self):
        comm = Communicator(2, track_memory=False)
        handle = comm.iallreduce(arrays_for(2))
        ticket = handle.ticket
        assert ticket.end > ticket.start
        assert comm.timeline.compute_clock == [0.0, 0.0]
        handle.wait()
        assert comm.timeline.compute_clock == [ticket.end, ticket.end]

    def test_issued_collectives_serialize_on_link(self):
        comm = Communicator(2, track_memory=False)
        h1 = comm.iallreduce(arrays_for(2))
        h2 = comm.iallreduce(arrays_for(2))
        assert h2.ticket.start == h1.ticket.end
        comm.wait_all()

    def test_comm_hides_behind_recorded_compute(self):
        comm = Communicator(2, track_memory=False)
        handle = comm.iallreduce(arrays_for(2))
        span = handle.ticket.end - handle.ticket.start
        for rank in range(2):
            comm.timeline.record_compute(rank, span * 10)
        handle.wait()
        assert comm.timeline.exposed_comm_time() == 0.0

    def test_ledger_events_carry_schedule(self):
        comm = Communicator(2, track_memory=False)
        comm.allreduce(arrays_for(2), tag="g")
        (event,) = comm.ledger.events
        assert event.has_schedule
        assert event.end_s - event.start_s == pytest.approx(event.time_s)

    def test_external_timeline_shared(self):
        tl = Timeline(2)
        comm = Communicator(2, track_memory=False, timeline=tl)
        comm.allreduce(arrays_for(2))
        assert tl.makespan > 0

    def test_timeline_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Communicator(2, track_memory=False, timeline=Timeline(3))


class TestFailureInjection:
    def test_failure_fires_at_issue_not_wait(self):
        comm = crashing_comm(2, crash_at=1, rank=0, track_memory=False)
        handle = comm.iallreduce(arrays_for(2))
        with pytest.raises(RankFailureError):
            comm.iallreduce(arrays_for(2))
        # The already-issued handle still completes cleanly.
        handle.wait()

    def test_blocking_calls_still_fail(self):
        comm = crashing_comm(2, crash_at=0, rank=1, track_memory=False)
        with pytest.raises(RankFailureError):
            comm.allgather(arrays_for(2))


class TestHandleEdgeCases:
    """Edge cases around handle lifetime and failures mid-issue."""

    def test_double_wait_does_not_double_release(self):
        comm = Communicator(2, device_spec=BIG_DEVICE)
        handle = comm.iallreduce(arrays_for(2, (100,)))
        first = handle.wait()
        clock_after_first = list(comm.timeline.compute_clock)
        second = handle.wait()
        assert second is first
        # Accounting ran exactly once: scratch stays released, the
        # compute streams are not advanced a second time.
        assert all(dev.bytes_in_use == 0 for dev in comm.devices)
        assert comm.timeline.compute_clock == clock_after_first
        assert comm.pending_work == ()

    def test_wait_all_with_already_waited_handle(self):
        comm = Communicator(2, track_memory=False)
        done = comm.iallreduce(arrays_for(2))
        still_pending = comm.iallgather(arrays_for(2))
        done.wait()
        # wait_all drains only what is actually pending.
        assert comm.pending_work == (still_pending,)
        assert comm.wait_all() == 1
        assert comm.wait_all() == 0

    def test_wait_all_after_failed_issue(self):
        """A mid-issue rank failure leaves earlier handles completable."""
        comm = crashing_comm(2, crash_at=1, rank=0, device_spec=BIG_DEVICE)
        survivor = comm.iallreduce(arrays_for(2, (100,)))
        with pytest.raises(RankFailureError):
            comm.iallgather(arrays_for(2))
        assert comm.pending_work == (survivor,)
        assert comm.wait_all() == 1
        assert comm.pending_work == ()

    def test_failed_issue_releases_no_scratch_of_survivors(self):
        """After a failure mid-issue, the pending survivor still holds its
        scratch; draining it releases everything — verified through the
        peak-footprint accounting the recovery loop relies on."""
        comm = crashing_comm(2, crash_at=1, rank=1, device_spec=BIG_DEVICE)
        survivor = comm.iallreduce(arrays_for(2, (100,)))
        with pytest.raises(RankFailureError):
            comm.iallreduce(arrays_for(2, (100,)))
        # Only the survivor's recv buffer is charged: the doomed
        # collective died before touching any state.
        assert comm.in_flight_scratch_bytes == 800
        assert comm.peak_bytes_per_rank == 800
        comm.wait_all()
        assert comm.in_flight_scratch_bytes == 0
        assert comm.reset_peaks() == 0
        assert comm.peak_bytes_per_rank == 0
        assert survivor.wait() is survivor.wait()
