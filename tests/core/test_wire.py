"""Tests for the pluggable wire-compression stack (repro.core.wire).

Covers the lossless frame codecs, the registry/spec layer, the
adaptive selector, the WirePolicy configuration
object, and the chunked encoded allgather — including the central
contract: swapping ``iencoded_allgather`` for a raw ``iallgather``
never changes a single decoded bit, only the wire bytes charged.
"""

import numpy as np
import pytest

from repro.cluster import Communicator
from repro.core.compression import Fp16Codec, IdentityCodec
from repro.core.sparse_exchange import AllGatherExchange, UniqueExchange
from repro.core.wire import (
    AdaptiveCodecSelector,
    DeltaBitpackCodec,
    RunLengthCodec,
    WirePolicy,
    available_codecs,
    decode_frames,
    iencoded_allgather,
    make_codec,
    register_codec,
)
from repro.core.wire.codecs import FRAME_HEADER_BYTES
from repro.nn.parameter import SparseGrad


def comm(world=4, **kw):
    kw.setdefault("track_memory", False)
    return Communicator(world, **kw)


CODECS = [DeltaBitpackCodec(), RunLengthCodec()]
CODEC_IDS = [c.name for c in CODECS]

EDGE_VECTORS = [
    np.zeros(0, dtype=np.int64),
    np.array([0], dtype=np.int64),
    np.array([7, 7, 7, 7], dtype=np.int64),
    np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max], dtype=np.int64),
    np.array([np.iinfo(np.int64).max, np.iinfo(np.int64).min], dtype=np.int64),
    np.arange(100, dtype=np.int64),
    np.arange(100, dtype=np.int64)[::-1].copy(),
    np.array([5, 1, 3, 3, 2, 100, 0], dtype=np.int64),
    np.array([-4, -1, 0, 3], dtype=np.int64),
    np.zeros(0, dtype=np.int32),
    np.array([np.iinfo(np.int32).min, np.iinfo(np.int32).max], dtype=np.int32),
    np.array([9, 2, 2, 8], dtype=np.int32),
]


class TestLosslessCodecs:
    @pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
    @pytest.mark.parametrize("vec", EDGE_VECTORS, ids=repr)
    def test_roundtrip_bit_exact(self, codec, vec):
        back = codec.decode(codec.encode(vec), vec.dtype)
        assert back.dtype == vec.dtype
        np.testing.assert_array_equal(back, vec)

    @pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
    @pytest.mark.parametrize("vec", EDGE_VECTORS, ids=repr)
    def test_raw_fallback_bounds_encoded_size(self, codec, vec):
        assert codec.encode(vec).nbytes <= vec.nbytes + FRAME_HEADER_BYTES

    def test_sorted_zipf_indices_compress_hard(self):
        """The workload the codecs exist for: sorted unique word ids."""
        rng = np.random.default_rng(0)
        idx = np.unique(
            rng.choice(100_000, size=8192, replace=True).astype(np.int64)
        )
        frame = DeltaBitpackCodec().encode(idx)
        assert frame.nbytes * 4 <= idx.nbytes  # >= 4x on this shape
        np.testing.assert_array_equal(
            DeltaBitpackCodec().decode(frame, np.int64), idx
        )

    def test_rle_collapses_dense_ranges(self):
        idx = np.arange(10_000, dtype=np.int64)
        frame = RunLengthCodec().encode(idx)
        assert frame.nbytes < 100  # one run: ~34 bytes
        np.testing.assert_array_equal(
            RunLengthCodec().decode(frame, np.int64), idx
        )

    def test_frames_survive_concatenation(self):
        """The allgatherv composition property decode_frames relies on."""
        codec = DeltaBitpackCodec()
        vecs = [
            np.array([3, 1, 4], dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.arange(50, dtype=np.int64),
        ]
        buf = np.concatenate([codec.encode(v) for v in vecs])
        np.testing.assert_array_equal(
            decode_frames(buf, np.int64), np.concatenate(vecs)
        )

    def test_mixed_codec_frames_decode_together(self):
        a = RunLengthCodec().encode(np.arange(64, dtype=np.int64))
        b = DeltaBitpackCodec().encode(np.array([9, 1, 5], dtype=np.int64))
        np.testing.assert_array_equal(
            decode_frames(np.concatenate([a, b]), np.int64),
            np.concatenate([np.arange(64), [9, 1, 5]]),
        )

    def test_dtype_mismatch_is_an_error_not_a_cast(self):
        frame = DeltaBitpackCodec().encode(np.array([1, 2], dtype=np.int64))
        with pytest.raises(ValueError, match="int64"):
            decode_frames(frame, np.int32)

    def test_rejects_float_and_2d_inputs(self):
        codec = DeltaBitpackCodec()
        with pytest.raises(ValueError, match="int32/int64"):
            codec.encode(np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError, match="1-D"):
            codec.encode(np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
    def test_estimate_is_a_usable_upper_signal(self, codec):
        idx = np.sort(
            np.random.default_rng(1).choice(50_000, 4096, replace=False)
        ).astype(np.int64)
        est = codec.estimate_nbytes(idx)
        assert 0 < est <= idx.nbytes + FRAME_HEADER_BYTES


class TestRegistry:
    def test_builtins_registered(self):
        assert {"identity", "fp16", "delta", "rle"} <= set(available_codecs())

    def test_make_codec_with_argument(self):
        assert make_codec("delta:128").block == 128
        assert make_codec("fp16:256").scale == 256.0
        assert isinstance(make_codec("identity"), IdentityCodec)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown codec"):
            make_codec("zstd")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_codec("delta", DeltaBitpackCodec)

    def test_reserved_characters_rejected(self):
        for bad in ("", "a/b", "a+b", "a:b"):
            with pytest.raises(ValueError, match="invalid"):
                register_codec(bad, DeltaBitpackCodec)


class TestAdaptiveSelector:
    def test_small_messages_never_encoded(self):
        sel = AdaptiveCodecSelector(min_bytes=4096)
        c = comm(4)
        tiny = [np.arange(8, dtype=np.int64)] * 4
        assert sel.select_index(tiny, c) is None
        assert sel.select_value([np.ones(8, np.float32)] * 4, c) is None

    def test_sorted_indices_pick_a_lossless_codec(self):
        sel = AdaptiveCodecSelector()
        c = comm(4)
        idx = [
            np.sort(
                np.random.default_rng(r).choice(100_000, 4096, replace=False)
            ).astype(np.int64)
            for r in range(4)
        ]
        picked = sel.select_index(idx, c, sorted_payload=True)
        assert picked is not None and picked.lossless

    def test_dense_ranges_prefer_rle(self):
        sel = AdaptiveCodecSelector()
        picked = sel.select_index(
            [np.arange(65_536, dtype=np.int64)] * 4, comm(4)
        )
        assert picked is not None and picked.name == "rle"

    def test_large_float_values_pick_fp16(self):
        sel = AdaptiveCodecSelector()
        vals = [np.ones(65_536, np.float32)] * 4
        picked = sel.select_value(vals, comm(4))
        assert isinstance(picked, Fp16Codec)

    def test_float16_and_integer_values_stay_raw(self):
        sel = AdaptiveCodecSelector()
        c = comm(4)
        assert sel.select_value([np.ones(65_536, np.float16)] * 4, c) is None
        assert sel.select_value([np.ones(65_536, np.int64)] * 4, c) is None


class TestWirePolicy:
    def test_from_spec_roles(self):
        p = WirePolicy.from_spec("fp16+delta")
        assert isinstance(p.value_codec, Fp16Codec)
        assert isinstance(p.index_codec, DeltaBitpackCodec)
        assert p.selector is None

    def test_from_spec_auto_and_none(self):
        assert WirePolicy.from_spec("auto").selector is not None
        none = WirePolicy.from_spec("none")
        assert none.is_inert

    def test_from_spec_with_codec_argument(self):
        assert WirePolicy.from_spec("delta:64").index_codec.block == 64

    def test_from_spec_rejects_bad_combinations(self):
        with pytest.raises(ValueError, match="auto"):
            WirePolicy.from_spec("auto+delta")
        with pytest.raises(ValueError, match="duplicate value"):
            WirePolicy.from_spec("fp16+identity")
        with pytest.raises(ValueError, match="duplicate index"):
            WirePolicy.from_spec("delta+rle")
        with pytest.raises(ValueError, match="unknown wire-codec"):
            WirePolicy.from_spec("gzip")
        with pytest.raises(ValueError, match="empty"):
            WirePolicy.from_spec("+")

    def test_chunk_bytes_validation(self):
        with pytest.raises(ValueError, match="positive"):
            WirePolicy.from_spec("delta", chunk_bytes=0)
        assert WirePolicy.from_spec("delta", chunk_bytes=512).chunk_bytes == 512

    def test_fixed_slot_wins_over_selector(self):
        fixed = RunLengthCodec()
        p = WirePolicy(index_codec=fixed, selector=AdaptiveCodecSelector())
        got = p.resolve_index_codec([np.arange(4, dtype=np.int64)], comm(2))
        assert got is fixed

    def test_sanitized_wraps_lossless_codec(self):
        from repro.analysis.sanitizer import SanitizedWireCodec

        p = WirePolicy.from_spec("delta").sanitized()
        assert isinstance(p.index_codec, SanitizedWireCodec)
        assert p.index_codec.name == "delta"


class TestEncodedAllgather:
    def _vectors(self, world, seed=0, n=2048, vocab=100_000):
        rng = np.random.default_rng(seed)
        return [
            np.sort(rng.choice(vocab, n + 17 * r, replace=False)).astype(
                np.int64
            )
            for r in range(world)
        ]

    @pytest.mark.parametrize("chunk_bytes", [None, 1024, 100])
    def test_matches_raw_allgather_bit_for_bit(self, chunk_bytes):
        world = 4
        vecs = self._vectors(world)
        raw = comm(world).iallgather(vecs, tag="idx").wait()
        enc = iencoded_allgather(
            comm(world), vecs, DeltaBitpackCodec(), tag="idx",
            chunk_bytes=chunk_bytes,
        ).wait()
        assert len(enc) == len(raw) == world
        for r, e in zip(raw, enc):
            assert e.dtype == r.dtype
            np.testing.assert_array_equal(e, r)

    def test_wait_is_idempotent(self):
        c = comm(2)
        pending = iencoded_allgather(
            c, self._vectors(2), DeltaBitpackCodec()
        )
        first = pending.wait()
        assert pending.wait() is first

    def test_ledger_charges_encoded_bytes_under_codec_scope(self):
        c = comm(4)
        vecs = self._vectors(4)
        raw_bytes = comm(4)
        raw_bytes.iallgather(vecs, tag="idx").wait()
        iencoded_allgather(c, vecs, DeltaBitpackCodec(), tag="idx").wait()
        by_scope = c.ledger.bytes_by_scope()
        assert set(by_scope) == {"wire-delta"}
        assert by_scope["wire-delta"] < raw_bytes.ledger.total_wire_bytes_per_rank

    def test_compression_factor_reports_logical_over_wire(self):
        c = comm(4)
        iencoded_allgather(
            c, self._vectors(4), DeltaBitpackCodec(), tag="idx"
        ).wait()
        assert c.ledger.compression_factor("idx") > 2.0

    def test_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="per-rank arrays"):
            iencoded_allgather(
                comm(4), self._vectors(2), DeltaBitpackCodec()
            )

    def test_chunking_charges_codec_compute_on_the_timeline(self):
        c = comm(2)
        iencoded_allgather(
            c, self._vectors(2), DeltaBitpackCodec(), chunk_bytes=1024
        ).wait()
        assert c.timeline.busy_time(0, "compute") > 0.0


def _grads(world, vocab=3000, tokens=512, dim=4, seed=3):
    rng = np.random.default_rng(seed)
    return [
        SparseGrad(
            indices=rng.integers(0, vocab, tokens),
            values=rng.standard_normal((tokens, dim)),
        )
        for _ in range(world)
    ]


class TestExchangeWithWirePolicy:
    """A wire policy must change bytes on the wire, never the numerics."""

    @pytest.mark.parametrize("spec", ["delta", "rle", "delta:128"])
    @pytest.mark.parametrize("strategy_cls", [UniqueExchange, AllGatherExchange])
    def test_lossless_policy_is_bit_exact(self, spec, strategy_cls):
        grads = _grads(4)
        base = strategy_cls().exchange(comm(4), grads)
        wired = strategy_cls(
            wire=WirePolicy.from_spec(spec, chunk_bytes=1024)
        ).exchange(comm(4), grads)
        for b, w in zip(base, wired):
            np.testing.assert_array_equal(b.indices, w.indices)
            np.testing.assert_array_equal(b.values, w.values)

    def test_delta_policy_shrinks_unique_index_wire_bytes(self):
        grads = _grads(8, vocab=50_000, tokens=4096)
        c_raw, c_wire = comm(8), comm(8)
        UniqueExchange().exchange(c_raw, grads)
        UniqueExchange(wire=WirePolicy.from_spec("delta")).exchange(
            c_wire, grads
        )
        assert (
            c_wire.ledger.total_wire_bytes_per_rank
            < c_raw.ledger.total_wire_bytes_per_rank
        )
        assert c_wire.ledger.compression_factor(":indices") > 2.0

    def test_inert_policy_matches_no_policy_ledger(self):
        grads = _grads(4)
        c_none, c_inert = comm(4), comm(4)
        UniqueExchange().exchange(c_none, grads)
        UniqueExchange(wire=WirePolicy()).exchange(c_inert, grads)
        assert (
            c_none.ledger.total_wire_bytes_per_rank
            == c_inert.ledger.total_wire_bytes_per_rank
        )

    def test_auto_policy_keeps_exchange_equivalence(self):
        """'auto' compresses indices losslessly (identical index sets)
        and may route values through FP16, which is lossy by design —
        so values are held to the half-precision bound, indices to
        bit-exactness."""
        grads = _grads(4, vocab=50_000, tokens=4096)
        base = UniqueExchange().exchange(comm(4), grads)
        auto = UniqueExchange(wire=WirePolicy.from_spec("auto")).exchange(
            comm(4), grads
        )
        np.testing.assert_array_equal(base[0].indices, auto[0].indices)
        vocab = 50_000
        np.testing.assert_allclose(
            base[0].to_dense(vocab), auto[0].to_dense(vocab),
            rtol=2e-3, atol=1e-2,
        )


class TestZeroLengthPayloads:
    """Empty per-rank vectors must flow through the whole encoded path
    bit-exact — a rank with nothing to contribute is routine for sparse
    exchanges, not an edge case."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_vector_roundtrips_every_frame_codec(self, dtype):
        from repro.core.wire import EntropyCodec

        empty = np.zeros(0, dtype=dtype)
        for codec in (DeltaBitpackCodec(), RunLengthCodec(), EntropyCodec()):
            frame = codec.encode(empty)
            assert frame.dtype == np.uint8
            back = codec.decode(frame, empty.dtype)
            assert back.dtype == empty.dtype and back.size == 0
            # An empty frame still decodes as a frame stream element.
            assert np.array_equal(decode_frames(frame, empty.dtype), empty)

    def test_allgather_with_all_ranks_empty(self):
        world = 4
        vecs = [np.zeros(0, dtype=np.int64) for _ in range(world)]
        out = iencoded_allgather(comm(world), vecs, DeltaBitpackCodec()).wait()
        assert len(out) == world
        for o in out:
            assert o.dtype == np.int64 and o.size == 0

    def test_allgather_with_some_ranks_empty_matches_raw(self):
        world = 4
        rng = np.random.default_rng(3)
        vecs = [
            np.zeros(0, dtype=np.int64)
            if r % 2
            else np.sort(rng.choice(10_000, 64 * (r + 1), replace=False)).astype(
                np.int64
            )
            for r in range(world)
        ]
        raw = comm(world).iallgather(list(vecs), tag="mix").wait()
        enc = iencoded_allgather(
            comm(world), list(vecs), RunLengthCodec(), tag="mix"
        ).wait()
        for r, e in zip(raw, enc):
            np.testing.assert_array_equal(e, r)
        np.testing.assert_array_equal(enc[0], np.concatenate(vecs))


class TestSelectorLearning:
    """A calibrated throughput table (``throughputs=``) replaces the
    static defaults in the adaptive selector's crossover test, and the
    selection stays identical on every rank."""

    def test_learned_table_changes_selection(self):
        """A glacial table entry must steer the crossover away from the
        codec the defaults would have picked."""
        from repro.core.wire.cost import CodecThroughput

        c = comm(4)
        idx = [np.arange(65_536, dtype=np.int64)] * 4
        default_pick = AdaptiveCodecSelector().select_index(idx, c)
        assert default_pick is not None and default_pick.name == "rle"
        crippled = AdaptiveCodecSelector(
            throughputs={
                "rle": CodecThroughput(encode_bps=1e3, decode_bps=1e3)
            }
        )
        slow_pick = crippled.select_index(idx, c)
        assert slow_pick is None or slow_pick.name != "rle"

    def test_cross_rank_determinism_under_lockstep(self):
        """One selector per simulated rank, all reading the same table,
        agree on the codec, so selector-routed traffic stays in
        lockstep."""
        from repro.cluster.lockstep import LockstepVerifier

        c = comm(4)
        selectors = [AdaptiveCodecSelector() for _ in range(c.world_size)]
        # Dense shifted ranges: every rank's frame encodes to the same
        # byte count, so the wire envelope itself is rank-uniform.
        vecs = [
            (np.arange(65_536) + r).astype(np.int64)
            for r in range(c.world_size)
        ]
        picks = [s.select_index(vecs, c) for s in selectors]
        names = [p.name if p is not None else None for p in picks]
        assert len(set(names)) == 1
        # The agreed pick drives a collective under the lockstep
        # verifier: identical fingerprints on every rank, no divergence.
        LockstepVerifier.attach(c)
        codec = picks[0] if picks[0] is not None else DeltaBitpackCodec()
        out = iencoded_allgather(c, vecs, codec, tag="lockstep").wait()
        report = c.verifier.check("selector: end")
        assert report.verified > 0 and not report.evicted
        np.testing.assert_array_equal(out[0], np.concatenate(vecs))
