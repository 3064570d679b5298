"""Tests for the FP16 compression-scaling codec (Section III-C)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.compression import Fp16Codec, IdentityCodec


class TestIdentityCodec:
    def test_passthrough(self):
        codec = IdentityCodec()
        x = np.random.default_rng(0).standard_normal(10).astype(np.float32)
        np.testing.assert_array_equal(codec.encode(x), x)
        np.testing.assert_array_equal(codec.decode(x, np.float32), x)

    def test_wire_ratio_one(self):
        x = np.ones(8, np.float32)
        assert IdentityCodec().encode(x).nbytes == x.nbytes


class TestFp16Codec:
    def test_wire_format_is_half_precision(self):
        codec = Fp16Codec()
        x = np.ones(5, np.float32)
        assert codec.encode(x).dtype == np.float16

    def test_wire_ratio_half(self):
        """The paper's '50% communication reduction'."""
        x = np.ones(8, np.float32)
        assert Fp16Codec().encode(x).nbytes == x.nbytes // 2

    def test_roundtrip_error_bounded(self):
        codec = Fp16Codec(scale=512.0)
        x = np.random.default_rng(1).standard_normal(1000).astype(np.float32)
        back = codec.decode(codec.encode(x), np.float32)
        # FP16 has ~1e-3 relative precision.
        np.testing.assert_allclose(back, x, rtol=2e-3, atol=1e-6)

    def test_scaling_preserves_small_gradients(self):
        """Compression-scaling's purpose: values below the FP16 subnormal
        floor survive when scaled up first."""
        tiny = np.full(100, 1e-8, np.float32)
        naive = Fp16Codec(scale=1.0)
        scaled = Fp16Codec(scale=1024.0)
        assert np.all(naive.decode(naive.encode(tiny), np.float32) == 0.0)
        back = scaled.decode(scaled.encode(tiny), np.float32)
        np.testing.assert_allclose(back, tiny, rtol=1e-2)

    def test_scaled_beats_naive_on_gradient_like_data(self):
        """Aggregate fidelity: scaling reduces reconstruction error on a
        realistic small-magnitude gradient distribution."""
        rng = np.random.default_rng(2)
        grads = (rng.standard_normal(10_000) * 1e-5).astype(np.float32)
        naive = Fp16Codec(scale=1.0)
        scaled = Fp16Codec(scale=1024.0)
        err_naive = np.abs(naive.decode(naive.encode(grads), np.float32) - grads).sum()
        err_scaled = np.abs(scaled.decode(scaled.encode(grads), np.float32) - grads).sum()
        assert err_scaled < err_naive / 10

    def test_out_of_range_encodes_as_inf(self):
        """A plain IEEE cast: no clip hides the overflow from the
        trainer's post-sync check."""
        codec = Fp16Codec(scale=1024.0)
        x = np.array([1e6, -1e6, 63.0], np.float32)
        encoded = codec.encode(x)
        assert encoded.tolist() == [np.inf, -np.inf, 64512.0]

    def test_paper_scale_factors_accepted(self):
        for f in (256.0, 512.0, 1024.0):
            Fp16Codec(scale=f)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            Fp16Codec(scale=0.0)

    def test_decode_requires_fp16(self):
        with pytest.raises(ValueError):
            Fp16Codec().decode(np.zeros(3, np.float32), np.float32)

    def test_encode_requires_float(self):
        with pytest.raises(ValueError):
            Fp16Codec().encode(np.zeros(3, np.int64))

    @given(
        x=hnp.arrays(
            np.float32,
            (50,),
            elements=st.floats(-10, 10, allow_nan=False, width=32),
        ),
        scale=st.sampled_from([256.0, 512.0, 1024.0]),
    )
    @settings(max_examples=50)
    def test_roundtrip_relative_error_property(self, x, scale):
        codec = Fp16Codec(scale=scale)
        back = codec.decode(codec.encode(x), np.float32)
        np.testing.assert_allclose(back, x, rtol=2e-3, atol=1e-4)
