"""Property tests for the two core techniques (``hypothesis``, 200
examples each, under the suite's derandomized profile).

Properties
----------
* Exchange equivalence, bit-for-bit: the paper's unique exchange and the
  dense allgather baseline must densify to *identical* arrays — not just
  close.  Gradient values are small-integer-valued floats, so every
  partial sum is exactly representable and summation order cannot leak
  into the comparison; any mismatch is a real algorithmic divergence.
* FP16 codec round-trip: with a power-of-two scale (exact division on
  decode) and inputs bounded away from saturation, the decode error is
  within the half-precision rounding bound
  ``2**-11 * |x| + 2**-24 / scale`` elementwise.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import Communicator
from repro.core.compression import FP16_MAX, Fp16Codec
from repro.core.sparse_exchange import AllGatherExchange, UniqueExchange
from repro.nn.parameter import SparseGrad

N_CASES = 200

_DTYPES = (np.float32, np.float64)


def _integer_valued_grads(world, vocab, tokens, dim, dtype, rng):
    """Per-rank SparseGrads whose float values are small exact integers."""
    return [
        SparseGrad(
            indices=rng.integers(0, vocab, tokens),
            values=rng.integers(-4, 5, (tokens, dim)).astype(dtype),
        )
        for _ in range(world)
    ]


@given(
    world=st.integers(1, 5),
    vocab=st.integers(2, 64),
    tokens=st.integers(1, 32),
    dim=st.integers(1, 8),
    dtype=st.sampled_from(_DTYPES),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=N_CASES)
def test_unique_exchange_matches_allgather_bit_for_bit(
    world, vocab, tokens, dim, dtype, seed
):
    grads = _integer_valued_grads(
        world, vocab, tokens, dim, dtype, np.random.default_rng(seed)
    )
    dense = AllGatherExchange().exchange(
        Communicator(world, track_memory=False), grads
    )
    unique = UniqueExchange().exchange(
        Communicator(world, track_memory=False), grads
    )
    for rank in range(world):
        lhs = dense[rank].to_dense(vocab)
        rhs = unique[rank].to_dense(vocab)
        assert lhs.dtype == rhs.dtype, (lhs.dtype, rhs.dtype)
        assert np.array_equal(lhs, rhs), (
            f"rank {rank}: unique exchange diverged from allgather by "
            f"{np.max(np.abs(lhs - rhs))}"
        )


@given(
    n=st.integers(1, 256),
    scale_exp=st.integers(1, 10),
    dtype=st.sampled_from(_DTYPES),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=N_CASES)
def test_fp16_codec_roundtrip_error_bound(n, scale_exp, dtype, seed):
    scale = 2.0**scale_exp
    # Bounded inside the FP16 range (past it, encode gives inf) so the
    # error is pure rounding.
    bound = FP16_MAX / scale * 0.99
    x = np.random.default_rng(seed).uniform(-bound, bound, n).astype(dtype)
    codec = Fp16Codec(scale=scale)
    wire = codec.encode(x)
    assert wire.dtype == np.float16
    decoded = codec.decode(wire, x.dtype)
    assert decoded.dtype == x.dtype
    # FP16 relative rounding error is 2^-11 (half ulp) plus an absolute
    # term of half the smallest subnormal step, 2^-24, undone by scale.
    tolerance = 2.0**-11 * np.abs(x) + 2.0**-24 / scale
    error = np.abs(decoded.astype(np.float64) - x.astype(np.float64))
    worst = int(np.argmax(error - tolerance))
    assert np.all(error <= tolerance), (
        f"round-trip error {error[worst]} exceeds bound {tolerance[worst]} "
        f"at x={x[worst]} (scale={scale})"
    )
