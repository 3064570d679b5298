"""Fused compress-reduce collectives: numerics, accounting, schedules.

Three contracts are pinned here:

* **Numerics** — fused results are bit-identical to the reference
  folds: the unfused encode → allreduce → decode path for summable
  value codecs, the plain rank-order fold for frame codecs (exact
  integer addition) and for ``codec=None``.
* **Accounting** — the raw fused ring's makespan equals the classic
  ring cost models exactly; wire bytes land on the ledger under the
  ``fused-<codec>`` scope; encoded hop bytes for a recoding ring are
  the *measured* sizes of the actual partial sums.
* **Schedule equivalence** — the live Timeline elapsed time equals
  :func:`repro.perf.codec_model.fused_reduce_time` on the same plan
  (the ≤1e-9 hop-recoding recurrence gate, exercised across codec
  regimes, chunkings, and world sizes).
"""

import numpy as np
import pytest

from repro.cluster.collectives import allreduce_arrays, ring_allreduce_time
from repro.cluster.communicator import Communicator
from repro.cluster.lockstep import LockstepVerifier
from repro.core.compression import Fp16Codec
from repro.core.wire import (
    DeltaBitpackCodec,
    EntropyCodec,
    RunLengthCodec,
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

    @pytest.mark.parametrize(
        "codec", [EntropyCodec(), DeltaBitpackCodec(), RunLengthCodec()]
    )
    def test_frame_codec_allreduce_matches_integer_fold(self, codec):
        arrays = _indices(4, 512)
        comm = Communicator(4)
        got = icompressed_allreduce(
            comm, [a.copy() for a in arrays], codec=codec
        ).wait()
        want = allreduce_arrays([a.copy() for a in arrays])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_chunked_pipeline_is_bit_identical_to_unchunked(self):
        arrays = _indices(4, 4096)
        comm = Communicator(4)
        got = icompressed_allreduce(
            comm,
            [a.copy() for a in arrays],
            codec=EntropyCodec(),
            chunk_bytes=2048,
        ).wait()
        want = allreduce_arrays([a.copy() for a in arrays])
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
            (EntropyCodec(), np.int64),
            (DeltaBitpackCodec(), np.int64),
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
        with pytest.raises(ValueError, match="not summable on the wire"):
            icompressed_allreduce(
                comm, _floats(4, 64), codec=DeltaBitpackCodec()
            )

    def test_lossy_unsummable_codec_rejected(self):
        class Lossy:
            name = "lossy"
            lossless = False
            summable = False

        with pytest.raises(ValueError, match="lossy"):
            plan_fused_reduce(_indices(4, 16), Lossy())

    def test_ragged_payload_is_padded_not_rejected(self):
        """A length that does not divide into ``world`` shards is padded
        for the hop plan only; every regime still returns the fold."""
        fp16 = Fp16Codec()
        floats, ints = _floats(4, 7), _indices(4, 7)
        fp16_fold = allreduce_arrays([fp16.encode(a) for a in floats])[0]
        for codec, arrays, want in (
            (None, floats, allreduce_arrays(floats)[0]),
            (fp16, floats, fp16.decode(fp16_fold, np.dtype(np.float32))),
            (EntropyCodec(), ints, allreduce_arrays(ints)[0]),
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
        arrays = _indices(4, 1024)
        comm = Communicator(4)
        icompressed_allreduce(comm, arrays, codec=EntropyCodec()).wait()
        plan = plan_fused_reduce(arrays, EntropyCodec())
        hop_sum = sum(sum(r) for r in plan.rs_hop_bytes) + sum(
            sum(r) for r in plan.ag_hop_bytes
        )
        scoped = [
            e for e in comm.ledger.events if e.scope.startswith("fused-entropy")
        ]
        assert scoped, "no fused-entropy ledger events"
        assert sum(e.wire_bytes_per_rank for e in scoped) == hop_sum
        # Compressed hops ship less than raw shards would have.
        shard = arrays[0].nbytes // 4
        raw_hops = (2 * 3) * shard
        assert hop_sum < raw_hops

    def test_recode_hop_sizes_are_measured_from_real_partials(self):
        codec = EntropyCodec()
        arrays = _indices(3, 9)
        plan = plan_fused_reduce(arrays, codec)
        flats = [a.reshape(-1) for a in arrays]
        shard = 3
        for h in range(1, 3):  # hop h ships partials over h ranks
            expect = 0
            for j in range(3):
                part = flats[j][j * shard:(j + 1) * shard].copy()
                for k in range(1, h):
                    part += flats[(j + k) % 3][j * shard:(j + 1) * shard]
                expect = max(expect, int(codec.encode(part).size))
            assert plan.rs_hop_bytes[0][h - 1] == expect

    @pytest.mark.parametrize("chunk_bytes", [None, 256])
    @pytest.mark.parametrize("world", [2, 5, 8])
    @pytest.mark.parametrize(
        "codec", [DeltaBitpackCodec(), RunLengthCodec(), EntropyCodec()],
        ids=lambda c: c.name,
    )
    def test_hop_major_plan_equals_the_shard_major_walk(
        self, codec, world, chunk_bytes
    ):
        """One ``encode_many`` per hop measures what walking each shard's
        accumulation chain with one ``encode`` per partial measured."""
        arrays = [a[:world * 77] for a in _indices(world, world * 80)]
        plan = plan_fused_reduce(arrays, codec, chunk_bytes=chunk_bytes)
        shard, hops = arrays[0].size // world, world - 1
        bounds = np.cumsum([0] + [b // 8 for b in plan.chunk_logical])
        rs = [[0] * hops for _ in plan.chunk_logical]
        ag = [[0] * hops for _ in plan.chunk_logical]
        for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            for j in range(world):
                piece = slice(j * shard + lo, j * shard + hi)
                part = arrays[j][piece].copy()
                for h in range(1, world):
                    rs[c][h - 1] = max(rs[c][h - 1], codec.encode(part).size)
                    part += arrays[(j + h) % world][piece]
                ag[c] = [max(ag[c][0], codec.encode(part).size)] * hops
        assert len(plan.chunk_logical) == (1 if chunk_bytes is None else 3)
        assert plan.rs_hop_bytes == tuple(map(tuple, rs))
        assert plan.ag_hop_bytes == tuple(map(tuple, ag))

    def test_lockstep_verifier_accepts_fused_traffic(self):
        comm = Communicator(4)
        LockstepVerifier.attach(comm)
        icompressed_allreduce(
            comm, _indices(4, 256), codec=EntropyCodec(), chunk_bytes=512
        ).wait()
        comm.verifier.check("fused: end")


class TestFusedScheduleEquivalence:
    """Live Timeline elapsed ≡ analytic recurrence ≡ Timeline replay."""

    @pytest.mark.parametrize("world", [2, 4, 8])
    @pytest.mark.parametrize("chunk_bytes", [None, 1024])
    @pytest.mark.parametrize("charge_compute", [True, False])
    def test_live_elapsed_equals_recurrence(
        self, world, chunk_bytes, charge_compute
    ):
        cases = [
            (None, _floats(world, 2048)),
            (Fp16Codec(), _floats(world, 2048)),
            (EntropyCodec(), _indices(world, 2048)),
        ]
        for codec, arrays in cases:
            comm = Communicator(world)
            plan = plan_fused_reduce(
                [a.copy() for a in arrays], codec, chunk_bytes=chunk_bytes
            )
            link = comm.fabric.ring_link(world)
            tp = (
                codec_throughput(codec.name)
                if codec is not None and charge_compute else None
            )
            t0 = comm.timeline.mark()
            icompressed_allreduce(
                comm, [a.copy() for a in arrays], codec=codec,
                chunk_bytes=chunk_bytes, charge_compute=charge_compute,
            ).wait()
            live = comm.timeline.elapsed_since(t0)
            analytic = fused_reduce_time(plan, link, tp)
            assert abs(live - analytic) <= 1e-9 * max(abs(analytic), 1e-30)
            replay = timeline_fused_reduce(plan, link, tp)
            assert abs(replay - analytic) <= 1e-9 * max(abs(analytic), 1e-30)
