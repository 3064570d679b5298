"""Fused compress-reduce collectives: numerics, accounting, schedules.

Three contracts are pinned here:

* **Numerics** — fused results are bit-identical to the reference
  folds: the unfused encode → allreduce → decode path for summable
  value codecs and the plain rank-order fold for ``codec=None``.  A
  frame codec is refused before anything is issued.
* **Accounting** — the raw fused ring's makespan equals the classic
  ring cost models exactly; wire bytes land on the ledger under the
  ``fused-<codec>`` scope.
* **Schedule equivalence** — the live Timeline elapsed time equals
  :func:`repro.perf.codec_model.fused_reduce_time` on the same plan
  (the ≤1e-9 recurrence gate, exercised on raw and FP16 plans across
  chunkings and world sizes).
"""

import numpy as np
import pytest

from repro.analysis import Sanitizer
from repro.cluster.collectives import allreduce_arrays, ring_allreduce_time
from repro.cluster.communicator import CollectiveHook, Communicator
from repro.core.compression import Fp16Codec
from repro.core.wire import (
    DeltaBitpackCodec,
    EntropyCodec,
    icompressed_allreduce,
    plan_fused_reduce,
)
from repro.core.wire.cost import codec_throughput
from repro.perf.codec_model import fused_reduce_time, timeline_fused_reduce

RNG = np.random.default_rng(20260808)


def _floats(world, n):
    return [RNG.standard_normal(n).astype(np.float32) for _ in range(world)]


def _indices(world, n, vocab=10**7):
    return [
        np.sort(RNG.integers(0, vocab, n)).astype(np.int64)
        for _ in range(world)
    ]


class _CountingHook(CollectiveHook):
    def __init__(self):
        self.calls = 0

    def pre_issue(self, comm, op, tag, arrays):
        self.calls += 1

    def post_issue(self, comm, handle, arrays):
        self.calls += 1


class TestFusedNumerics:
    def test_raw_allreduce_matches_plain_fold_bitwise(self):
        arrays = _floats(4, 256)
        comm = Communicator(4)
        got = icompressed_allreduce(comm, [a.copy() for a in arrays]).wait()
        want = allreduce_arrays([a.copy() for a in arrays])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_fp16_allreduce_matches_unfused_encode_reduce_decode(self):
        codec = Fp16Codec(512.0)
        arrays = _floats(4, 300)
        comm = Communicator(4)
        got = icompressed_allreduce(
            comm, [a.copy() for a in arrays], codec=codec
        ).wait()
        encoded = [codec.encode(a) for a in arrays]
        reduced = allreduce_arrays(encoded)[0]
        want = codec.decode(reduced, np.dtype(np.float32))
        for g in got:
            assert np.array_equal(g, want)

    def test_chunked_pipeline_is_bit_identical_to_unchunked(self):
        arrays = _floats(4, 4096)
        got = icompressed_allreduce(
            Communicator(4),
            [a.copy() for a in arrays],
            codec=Fp16Codec(),
            chunk_bytes=2048,
        ).wait()
        want = icompressed_allreduce(
            Communicator(4), [a.copy() for a in arrays], codec=Fp16Codec()
        ).wait()
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_world_one_is_a_codec_roundtrip(self):
        a = RNG.standard_normal(48).astype(np.float32)
        codec = Fp16Codec()
        comm = Communicator(1)
        got = icompressed_allreduce(comm, [a.copy()], codec=codec).wait()
        want = codec.decode(codec.encode(a), np.dtype(np.float32))
        assert np.array_equal(got[0], want)

    def test_zero_length_payloads_survive_every_regime(self):
        for codec, dtype in (
            (None, np.float32),
            (Fp16Codec(), np.float32),
        ):
            comm = Communicator(4)
            empt = [np.zeros(0, dtype=dtype) for _ in range(4)]
            got = icompressed_allreduce(comm, empt, codec=codec).wait()
            assert all(g.size == 0 and g.dtype == dtype for g in got)

    def test_wait_is_idempotent(self):
        comm = Communicator(4)
        h = icompressed_allreduce(comm, _floats(4, 64), codec=Fp16Codec())
        first = h.wait()
        makespan = comm.timeline.makespan
        assert h.wait() is first
        assert comm.timeline.makespan == makespan


class TestFusedValidation:
    def test_frame_codec_rejects_float_payloads(self):
        comm = Communicator(4)
        with pytest.raises(ValueError, match="'delta' is not summable"):
            icompressed_allreduce(
                comm, _floats(4, 64), codec=DeltaBitpackCodec()
            )

    def test_frame_codec_is_refused_before_anything_is_issued(self):
        """The one fused regime reduces summable codecs; an integer
        frame codec fails before a ledger event, ticket or hook call."""
        comm = Communicator(4)
        hook = _CountingHook()
        comm.hooks.append(hook)
        events, tickets = len(comm.ledger.events), len(comm.timeline.events)
        with pytest.raises(ValueError, match="'entropy' is not summable"):
            icompressed_allreduce(comm, _indices(4, 256), codec=EntropyCodec())
        assert len(comm.ledger.events) == events
        assert len(comm.timeline.events) == tickets
        assert hook.calls == 0
        assert comm.pending_work == ()

    def test_lossy_unsummable_codec_rejected(self):
        class Lossy:
            name = "lossy"
            lossless = False
            summable = False

        with pytest.raises(ValueError, match="not summable"):
            plan_fused_reduce(_indices(4, 16), Lossy())

    def test_ragged_payload_is_padded_not_rejected(self):
        """A length that does not divide into ``world`` shards is padded
        for the hop plan only; raw and FP16 still return the fold."""
        fp16 = Fp16Codec()
        floats = _floats(4, 7)
        fp16_fold = allreduce_arrays([fp16.encode(a) for a in floats])[0]
        for codec, arrays, want in (
            (None, floats, allreduce_arrays(floats)[0]),
            (fp16, floats, fp16.decode(fp16_fold, np.dtype(np.float32))),
        ):
            got = icompressed_allreduce(
                Communicator(4), [a.copy() for a in arrays], codec=codec
            ).wait()
            for g in got:
                assert np.array_equal(g, want)

    def test_world_size_mismatch_rejected(self):
        comm = Communicator(4)
        with pytest.raises(ValueError, match="4-rank"):
            icompressed_allreduce(comm, _floats(3, 8))


class TestFusedAccounting:
    def test_raw_ring_matches_classic_cost_models_exactly(self):
        arrays = _floats(8, 1024)
        comm = Communicator(8)
        link = comm.fabric.ring_link(8)
        t0 = comm.timeline.mark()
        icompressed_allreduce(comm, [a.copy() for a in arrays]).wait()
        assert comm.timeline.elapsed_since(t0) == pytest.approx(
            ring_allreduce_time(8, arrays[0].nbytes, link), rel=1e-12
        )

    def test_ledger_charges_encoded_bytes_under_fused_scope(self):
        arrays = _floats(4, 1024)
        comm = Communicator(4)
        icompressed_allreduce(comm, arrays, codec=Fp16Codec()).wait()
        plan = plan_fused_reduce(arrays, Fp16Codec())
        hop_sum = sum(sum(r) for r in plan.rs_hop_bytes) + sum(
            sum(r) for r in plan.ag_hop_bytes
        )
        scoped = [
            e for e in comm.ledger.events if e.scope.startswith("fused-fp16")
        ]
        assert scoped, "no fused-fp16 ledger events"
        assert sum(e.wire_bytes_per_rank for e in scoped) == hop_sum
        # FP16 hops ship half of what raw float32 shards would have.
        shard = arrays[0].nbytes // 4
        raw_hops = (2 * 3) * shard
        assert hop_sum * 2 == raw_hops

    def test_one_transfer_observation_per_hop_collective(self):
        from repro.telemetry import MetricsRegistry

        comm = Communicator(4)
        comm.metrics = MetricsRegistry()
        icompressed_allreduce(
            comm, _floats(4, 1024), codec=Fp16Codec(), chunk_bytes=512
        ).wait()
        hops = comm.timeline.collectives
        assert len(hops) > 2 * 3  # chunked: several hops per ring phase
        observed = comm.metrics.get("repro_wire_transfer_seconds").value(
            codec="fp16"
        )
        assert observed.count == len(hops)
        assert observed.sum == sum(r.end - r.start for r in hops)

    def test_sanitizer_accepts_fused_traffic(self):
        comm = Communicator(4)
        san = Sanitizer(comm)
        with comm.timeline.scope("fused"):
            icompressed_allreduce(
                comm, _floats(4, 256), codec=Fp16Codec(), chunk_bytes=512
            ).wait()
        san.finish()
        assert san.collectives_checked > 0


class TestFusedScheduleEquivalence:
    """Live Timeline elapsed ≡ analytic recurrence ≡ Timeline replay."""

    @pytest.mark.parametrize("world", [2, 4, 8])
    @pytest.mark.parametrize("chunk_bytes", [None, 1024])
    @pytest.mark.parametrize("encoded", [True, False])
    def test_live_elapsed_equals_recurrence(self, world, chunk_bytes, encoded):
        """FP16 rings charge codec compute; the raw ring charges none."""
        codec = Fp16Codec() if encoded else None
        arrays = _floats(world, 2048)
        comm = Communicator(world)
        plan = plan_fused_reduce(
            [a.copy() for a in arrays], codec, chunk_bytes=chunk_bytes
        )
        link = comm.fabric.ring_link(world)
        tp = codec_throughput(codec.name) if encoded else None
        t0 = comm.timeline.mark()
        icompressed_allreduce(
            comm, [a.copy() for a in arrays], codec=codec,
            chunk_bytes=chunk_bytes,
        ).wait()
        live = comm.timeline.elapsed_since(t0)
        analytic = fused_reduce_time(plan, link, tp)
        assert abs(live - analytic) <= 1e-9 * max(abs(analytic), 1e-30)
        replay = timeline_fused_reduce(plan, link, tp)
        assert abs(replay - analytic) <= 1e-9 * max(abs(analytic), 1e-30)
