"""Tests for the perf-layer codec model (repro.perf.codec_model).

The central gate: the fused ring's analytic makespan must equal the
makespan measured by executing the same hop schedule on a real
Timeline — the Timeline's contention rules are the model, so any
divergence is a modeling bug, not noise.
"""

import numpy as np
import pytest

from repro.cluster.interconnect import LinkSpec
from repro.core.compression import Fp16Codec
from repro.core.wire.codecs import DeltaBitpackCodec
from repro.core.wire.cost import (
    DEFAULT_CODEC_THROUGHPUTS,
    codec_throughput,
    compressed_transfer_seconds,
    slowest_throughput,
)
from repro.perf import (
    CodecThroughput,
    calibrate_codec_throughput,
    fused_reduce_time,
    timeline_fused_reduce,
    uniform_fused_plan,
)
from repro.telemetry import MetricsRegistry

LINK = LinkSpec(bandwidth=16e9, latency=5e-6)
TP = CodecThroughput(encode_bps=50e9, decode_bps=80e9)


class TestCalibration:
    def test_calibration_measures_positive_throughput(self):
        tp = calibrate_codec_throughput(
            DeltaBitpackCodec(), nbytes=64 << 10, repeats=1
        )
        assert tp.encode_bps > 0 and tp.decode_bps > 0

    def test_value_codec_is_calibrated_on_a_float_payload(self):
        """FP16 has no integer payload: it is timed on a float32 gradient
        and published like the index codecs."""
        registry = MetricsRegistry()
        tp = calibrate_codec_throughput(
            Fp16Codec(), nbytes=64 << 10, repeats=1, registry=registry
        )
        assert tp.encode_bps > 0 and tp.decode_bps > 0
        gauge = registry.get("repro_codec_calibrated_bps")
        assert gauge.value(codec="fp16", direction="encode") == tp.encode_bps

    def test_calibration_validation(self):
        with pytest.raises(ValueError, match="nbytes"):
            calibrate_codec_throughput(DeltaBitpackCodec(), nbytes=4)
        with pytest.raises(ValueError, match="repeats"):
            calibrate_codec_throughput(DeltaBitpackCodec(), repeats=0)

    def test_default_table_lookup(self):
        tp = codec_throughput("delta")
        assert tp.encode_bps > 0
        # Unknown codecs inherit the slowest entry of the table in use
        # (for the defaults, the entropy codec's).
        assert codec_throughput("nonesuch") == slowest_throughput(
            DEFAULT_CODEC_THROUGHPUTS
        )
        assert codec_throughput("nonesuch") == codec_throughput("entropy")


class TestThroughputFallback:
    """Satellite fix: unknown codecs inherit the slowest entry of the
    table *in use*, not ``DEFAULT_CODEC_THROUGHPUTS["delta"]``."""

    def test_calibrated_table_falls_back_to_its_own_slowest(self):
        calibrated = {
            "delta": CodecThroughput(encode_bps=9e9, decode_bps=9e9),
            "entropy": CodecThroughput(encode_bps=1e9, decode_bps=2e9),
        }
        tp = codec_throughput("nonesuch", calibrated)
        assert tp == calibrated["entropy"]
        assert tp != DEFAULT_CODEC_THROUGHPUTS["delta"]

    def test_asymmetric_codec_ranked_by_bottleneck_direction(self):
        table = {
            "a": CodecThroughput(encode_bps=100e9, decode_bps=3e9),
            "b": CodecThroughput(encode_bps=5e9, decode_bps=5e9),
        }
        assert slowest_throughput(table) == table["a"]

    def test_empty_calibrated_table_degrades_to_slowest_default(self):
        assert codec_throughput("nonesuch", {}) == slowest_throughput(
            DEFAULT_CODEC_THROUGHPUTS
        )

    def test_known_name_in_calibrated_table_wins(self):
        calibrated = {"delta": CodecThroughput(1e9, 1e9)}
        assert codec_throughput("delta", calibrated) == calibrated["delta"]


class TestMemoizationSafety:
    """Satellite fix: the lru-cached crossover helpers key on
    *by-value* frozen dataclasses, so recalibrating (constructing a new
    CodecThroughput) must change the answer — a poisoned cache keyed on
    identity or name would keep returning the stale figure."""

    def test_recalibration_changes_transfer_seconds_after_prior_query(self):
        slow = CodecThroughput(encode_bps=1e9, decode_bps=1e9)
        fast = CodecThroughput(encode_bps=100e9, decode_bps=100e9)
        nbytes = 1 << 20
        before = compressed_transfer_seconds(nbytes, nbytes // 4, 8, LINK, slow)
        after = compressed_transfer_seconds(nbytes, nbytes // 4, 8, LINK, fast)
        assert after < before
        # Equal-by-value keys still hit the cache deterministically.
        again = compressed_transfer_seconds(
            nbytes, nbytes // 4, 8, LINK, CodecThroughput(1e9, 1e9)
        )
        assert again == before

    def test_new_link_spec_is_a_new_cache_key(self):
        nbytes = 1 << 20
        fat = LinkSpec(bandwidth=100e9, latency=1e-6)
        t_thin = compressed_transfer_seconds(nbytes, nbytes // 4, 8, LINK, TP)
        t_fat = compressed_transfer_seconds(nbytes, nbytes // 4, 8, fat, TP)
        assert t_fat < t_thin


FUSED_LINK = LinkSpec(bandwidth=16e9, latency=5e-6)


class TestFusedRecurrence:
    """The fused-reduce closed recurrence must match a Timeline replay
    of the identical schedule to <=1e-9 relative error (ISSUE gate)."""

    @pytest.mark.parametrize("world", [1, 2, 4, 16])
    @pytest.mark.parametrize("chunk", [None, 64 << 10])
    @pytest.mark.parametrize("charge_codec", [True, False])
    def test_recurrence_matches_timeline_replay(
        self, world, chunk, charge_codec
    ):
        plan = uniform_fused_plan(
            4 << 20, world, encoded_ratio=3.0, chunk_bytes=chunk,
            charge_codec=charge_codec,
        )
        analytic = fused_reduce_time(plan, FUSED_LINK, TP)
        replay = timeline_fused_reduce(plan, FUSED_LINK, TP)
        assert analytic == pytest.approx(replay, rel=1e-9)
        if world > 1 or charge_codec:
            assert analytic > 0
        else:
            # Degenerate single-rank raw ring: nothing touches the
            # payload, so nothing is charged.
            assert analytic == 0.0

    def test_raw_plan_matches_classic_ring_models(self):
        from repro.cluster.collectives import ring_allreduce_time

        nbytes = 8 << 20
        for world in (2, 4, 32):
            shard = -(-nbytes // world)
            ar = uniform_fused_plan(nbytes, world, charge_codec=False)
            assert fused_reduce_time(ar, FUSED_LINK, None) == pytest.approx(
                ring_allreduce_time(world, world * shard, FUSED_LINK),
                rel=1e-12,
            )

    def test_uniform_plan_matches_measured_plan_for_fp16(self):
        from repro.core.compression import Fp16Codec
        from repro.core.wire.fused import plan_fused_reduce

        world, n = 4, 4096
        rng = np.random.default_rng(7)
        arrays = [
            rng.standard_normal(n).astype(np.float32) for _ in range(world)
        ]
        measured = plan_fused_reduce(arrays, Fp16Codec(), chunk_bytes=2048)
        uniform = uniform_fused_plan(
            arrays[0].nbytes, world, encoded_ratio=2.0, chunk_bytes=2048
        )
        assert measured == uniform

    def test_chunking_pipelines_the_fused_ring(self):
        big = uniform_fused_plan(64 << 20, 16, encoded_ratio=2.0)
        chunked = uniform_fused_plan(
            64 << 20, 16, encoded_ratio=2.0, chunk_bytes=1 << 20
        )
        assert fused_reduce_time(chunked, FUSED_LINK, TP) < fused_reduce_time(
            big, FUSED_LINK, TP
        )

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="logical_bytes"):
            uniform_fused_plan(0, 4)
        with pytest.raises(ValueError, match="world"):
            uniform_fused_plan(1 << 20, 0)
