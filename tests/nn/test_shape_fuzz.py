"""Hypothesis shape-fuzz for the recurrent layers and model assemblies.

Forward/backward must accept any positive (B, T, dims) combination,
return correctly-shaped outputs, produce finite values, and accumulate
gradients for every parameter — across LSTM and RHN.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import LSTM, RHN

dims = st.integers(1, 6)


class TestLSTMFuzz:
    @given(
        b=st.integers(1, 4),
        t=st.integers(1, 6),
        i=dims,
        h=dims,
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40)
    def test_forward_backward_shapes(self, b, t, i, h, seed):
        rng = np.random.default_rng(seed)
        lstm = LSTM(i, h, rng)
        x = rng.standard_normal((b, t, i))
        out, cache = lstm.forward(x)
        assert out.shape == (b, t, h)
        assert np.isfinite(out).all()
        dx = lstm.backward(rng.standard_normal((b, t, h)), cache)
        assert dx.shape == x.shape
        assert np.isfinite(dx).all()
        for p in lstm.parameters():
            assert p.grad is not None and np.isfinite(p.grad).all()


class TestRHNFuzz:
    @given(
        b=st.integers(1, 3),
        t=st.integers(1, 5),
        i=dims,
        h=dims,
        depth=st.integers(1, 4),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40)
    def test_forward_backward_shapes(self, b, t, i, h, depth, seed):
        rng = np.random.default_rng(seed)
        rhn = RHN(i, h, depth, rng)
        x = rng.standard_normal((b, t, i))
        out, cache = rhn.forward(x)
        assert out.shape == (b, t, h)
        assert np.isfinite(out).all()
        dx = rhn.backward(rng.standard_normal((b, t, h)), cache)
        assert dx.shape == x.shape
        assert np.isfinite(dx).all()


class TestStateCarryFuzz:
    @given(
        split=st.integers(1, 5),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=25)
    def test_lstm_split_invariance(self, split, seed):
        """Splitting any sequence at any point and carrying state must
        reproduce the unsplit forward exactly."""
        rng = np.random.default_rng(seed)
        lstm = LSTM(2, 3, rng, dtype=np.float64)
        t_total = 6
        x = rng.standard_normal((2, t_total, 2))
        full, _ = lstm.forward(x)
        cut = min(split, t_total - 1)
        first, c1 = lstm.forward(x[:, :cut])
        second, _ = lstm.forward(x[:, cut:], state=c1["final_state"])
        np.testing.assert_allclose(
            np.concatenate([first, second], axis=1), full, rtol=1e-10
        )
