"""Tests for the simulated communicator: results, cost and memory charging."""

import numpy as np
import pytest

from repro.cluster import (
    Communicator,
    DeviceOOMError,
    DeviceSpec,
    allgather_wire_bytes,
    allreduce_wire_bytes,
    hybrid_mesh,
)
from repro.core.compression import Fp16Codec
from repro.core.wire import (
    DeltaBitpackCodec,
    icompressed_allreduce,
    iencoded_allgather,
)

SMALL_DEVICE = DeviceSpec(name="tiny", memory_bytes=1000, peak_flops=1e12)


def arrays_for(world, shape=(4,), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for _ in range(world)]


class TestResults:
    def test_allreduce_matches_functional(self):
        comm = Communicator(3, track_memory=False)
        arrays = arrays_for(3)
        out = comm.allreduce(arrays)
        np.testing.assert_allclose(out[0], sum(arrays))

    def test_allgather_matches_functional(self):
        comm = Communicator(3, track_memory=False)
        arrays = arrays_for(3, (2, 2))
        out = comm.allgather(arrays)
        np.testing.assert_allclose(out[1], np.concatenate(arrays))

    def test_reduce_scatter(self):
        comm = Communicator(2, track_memory=False)
        arrays = arrays_for(2, (4,))
        shards = comm.reduce_scatter(arrays)
        np.testing.assert_allclose(
            np.concatenate(shards), arrays[0] + arrays[1]
        )

    def test_wrong_rank_count_rejected(self):
        comm = Communicator(4, track_memory=False)
        with pytest.raises(ValueError):
            comm.allreduce(arrays_for(3))

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            Communicator(0)


class TestLedger:
    def test_allreduce_bytes_recorded(self):
        comm = Communicator(4, track_memory=False)
        data = [np.zeros(100, np.float32) for _ in range(4)]
        comm.allreduce(data)
        assert comm.ledger.total_wire_bytes_per_rank == allreduce_wire_bytes(4, 400)

    def test_allgather_bytes_recorded(self):
        comm = Communicator(4, track_memory=False)
        data = [np.zeros(100, np.float32) for _ in range(4)]
        comm.allgather(data)
        assert comm.ledger.total_wire_bytes_per_rank == allgather_wire_bytes(4, 400)

    def test_fp16_halves_wire_bytes(self):
        comm = Communicator(4, track_memory=False)
        b32 = comm.ledger.snapshot()
        comm.allreduce([np.zeros(100, np.float32) for _ in range(4)])
        d32 = comm.ledger.delta_since(b32)
        b16 = comm.ledger.snapshot()
        comm.allreduce([np.zeros(100, np.float16) for _ in range(4)])
        d16 = comm.ledger.delta_since(b16)
        assert d16.wire_bytes_per_rank * 2 == d32.wire_bytes_per_rank

    def test_multi_node_slower_than_single_node(self):
        """A 16-rank ring crosses Infiniband; 8 ranks stay on PCIe."""
        single = Communicator(8, track_memory=False)
        multi = Communicator(16, track_memory=False)
        payload = 10**6
        single.allreduce([np.zeros(payload, np.float32)] * 8)
        multi.allreduce([np.zeros(payload, np.float32)] * 16)
        t_single = single.ledger.total_time_s
        t_multi = multi.ledger.total_time_s
        # Per-byte throughput degrades despite similar ring volume.
        assert t_multi > t_single

    def test_tags_flow_to_events(self):
        comm = Communicator(2, track_memory=False)
        comm.allreduce(arrays_for(2), tag="embedding")
        assert comm.ledger.events[-1].tag == "embedding"


class TestMemoryCharging:
    def test_allgather_charges_full_result(self):
        comm = Communicator(4, device_spec=SMALL_DEVICE)
        data = [np.zeros(20, np.float64) for _ in range(4)]  # 160 B each
        comm.allgather(data)
        # Peak must include the 4 * 160 = 640 B gathered buffer.
        assert comm.peak_bytes_per_rank == 640

    def test_allgather_can_oom(self):
        comm = Communicator(4, device_spec=SMALL_DEVICE)
        data = [np.zeros(40, np.float64) for _ in range(4)]  # 4*320 > 1000
        with pytest.raises(DeviceOOMError):
            comm.allgather(data)

    def test_oom_on_one_rank_charges_no_rank(self):
        """A collective that does not fit on rank k is all-or-nothing:
        ranks 0..k-1 are not left holding its scratch forever."""
        comm = Communicator(4, device_spec=SMALL_DEVICE)
        comm.devices[2].alloc(900, tag="resident")
        data = [np.zeros(25, np.float64) for _ in range(4)]  # 200 B each
        with pytest.raises(DeviceOOMError) as err:
            comm.allreduce(data)
        assert err.value.device_id == 2  # the lowest rank that does not fit
        assert [d.bytes_in_use for d in comm.devices] == [0, 0, 900, 0]
        assert [d.peak_bytes for d in comm.devices] == [0, 0, 900, 0]
        assert comm.pending_work == () and comm.ledger.events == []
        # The next collective that fits succeeds, with the right peak.
        comm.allreduce([d[:10] for d in data])  # 80 B each
        assert [d.bytes_in_use for d in comm.devices] == [0, 0, 900, 0]
        assert [d.peak_bytes for d in comm.devices] == [80, 80, 980, 80]

    def test_allreduce_scratch_smaller_than_allgather(self):
        """The crux of the paper: allreduce scratch stays O(message)."""
        comm_ar = Communicator(4, device_spec=SMALL_DEVICE)
        comm_ag = Communicator(4, device_spec=SMALL_DEVICE)
        data = [np.zeros(25, np.float64) for _ in range(4)]  # 200 B each
        comm_ar.allreduce([d.copy() for d in data])
        comm_ag.allgather([d.copy() for d in data])
        assert comm_ar.peak_bytes_per_rank < comm_ag.peak_bytes_per_rank

    def test_scratch_released_after_call(self):
        comm = Communicator(2, device_spec=SMALL_DEVICE)
        comm.allreduce(arrays_for(2))
        for dev in comm.devices:
            assert dev.bytes_in_use == 0

    def test_track_memory_off_skips_charging(self):
        comm = Communicator(4, device_spec=SMALL_DEVICE, track_memory=False)
        data = [np.zeros(1000, np.float64) for _ in range(4)]
        comm.allgather(data)  # would OOM if charged
        assert comm.peak_bytes_per_rank == 0

    def test_reset_peaks(self):
        comm = Communicator(2, device_spec=SMALL_DEVICE)
        comm.allreduce(arrays_for(2))
        comm.reset_peaks()
        assert comm.peak_bytes_per_rank == 0


class TestReadOnlyResults:
    """An allreduce or allgather result is identical on every rank of a
    ring, so the ring's members share one object, and it is read-only:
    a caller that writes to it fails loudly instead of corrupting the
    other members' results."""

    WORLD = 16

    @staticmethod
    def run(comm, op):
        rng = np.random.default_rng(3)
        world = comm.world_size
        floats = [rng.standard_normal(8).astype(np.float32) for _ in range(world)]
        ids = [
            np.sort(rng.integers(0, 1000, 3 + r % 4)).astype(np.int64)
            for r in range(world)
        ]
        if op == "allreduce":
            return comm.allreduce(floats)
        if op == "iallreduce":
            return comm.iallreduce(floats).wait()
        if op == "allgather":
            return comm.allgather(ids)
        if op == "iallgather":
            return comm.iallgather(ids).wait()
        if op == "fused_fp16":
            return icompressed_allreduce(comm, floats, codec=Fp16Codec()).wait()
        return iencoded_allgather(comm, ids, DeltaBitpackCodec()).wait()

    @pytest.mark.parametrize(
        "op",
        ["allreduce", "iallreduce", "allgather", "iallgather",
         "fused_fp16", "encoded_gather"],
    )
    @pytest.mark.parametrize("mesh", [None, "pipe=2,tensor=2,data=4"])
    def test_one_read_only_result_per_ring(self, mesh, op):
        comm = Communicator(self.WORLD, track_memory=False)
        if mesh is not None:
            comm.mesh = hybrid_mesh(mesh, self.WORLD)
        comm = comm.axis("data")
        out = self.run(comm, op)
        assert len(out) == self.WORLD
        heads = []
        for ranks in comm.groups:
            head = out[ranks[0]]
            assert all(out[r] is head for r in ranks)
            assert not head.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                head[0] = 0
            heads.append(head)
        assert len({id(h) for h in heads}) == len(comm.groups)
