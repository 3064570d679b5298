"""Tests for numerically-stable functional primitives."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.functional import (
    cross_entropy_from_logits,
    dsigmoid,
    dtanh,
    log_softmax,
    row_matmul,
    sigmoid,
    softmax,
)


def looped_row_matmul(x, w):
    """The per-row gemv loop ``row_matmul`` replaced — kept as its reference."""
    out = np.empty((x.shape[0], w.shape[1]), dtype=np.result_type(x, w))
    for r in range(x.shape[0]):
        out[r] = x[r] @ w
    return out


#: Operand layouts: C order, Fortran order, a transposed view of the
#: other order, and negative-stride views along each axis.
LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
    "rows reversed": lambda a: a[::-1],
    "columns reversed": lambda a: np.ascontiguousarray(a[:, ::-1])[:, ::-1],
}


class TestRowMatmulIsTheRowLoop:
    @given(
        dtype=st.sampled_from([np.float16, np.float32, np.float64]),
        batch=st.sampled_from([0, 1, 2, 3, 8, 64]),
        inner=st.sampled_from([1, 5, 32, 64]),
        outer=st.sampled_from([1, 7, 256]),
        x_layout=st.sampled_from(sorted(LAYOUTS)),
        w_layout=st.sampled_from(sorted(LAYOUTS)),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_per_row_gemv(
        self, dtype, batch, inner, outer, x_layout, w_layout, seed
    ):
        rng = np.random.default_rng(seed)
        x = LAYOUTS[x_layout](rng.standard_normal((batch, inner)).astype(dtype))
        w = LAYOUTS[w_layout](rng.standard_normal((inner, outer)).astype(dtype))
        got = row_matmul(x, w)
        want = looped_row_matmul(x, w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            row_matmul(np.zeros((2, 3)), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            row_matmul(np.zeros(3), np.zeros((3, 5)))


def masked_sigmoid(x):
    """The boolean-mask form ``sigmoid`` replaced — kept as its reference."""
    out = np.empty_like(
        x,
        dtype=np.result_type(x.dtype, np.float64)
        if x.dtype == np.float16
        else x.dtype,
    )
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSigmoidIsBitIdenticalToTheMaskedForm:
    SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 800.0, -800.0]

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 64), (64, 4, 64), (512, 2, 12)])
    def test_contiguous_and_strided(self, dtype, shape):
        rng = np.random.default_rng(shape[0])
        wide = shape[:-1] + (4 * shape[-1],)
        z = (rng.standard_normal(wide) * 6).astype(dtype)
        z.reshape(-1)[: len(self.SPECIALS)] = self.SPECIALS
        views = {
            "contiguous": np.ascontiguousarray(z[..., : shape[-1]]),
            "gate slice": z[..., : shape[-1]],
            "inner slice": z[..., shape[-1] : 2 * shape[-1]],
            "stepped": z[..., ::4],
        }
        for x in views.values():
            before = x.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = sigmoid(x)
            assert_same_bits(got, masked_sigmoid(x))
            assert_same_bits(x, before)  # input untouched

    def test_float16_returns_float64(self):
        x = np.array([-3.0, 0.0, 3.0], dtype=np.float16)
        assert sigmoid(x).dtype == np.float64


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_extremes_no_overflow(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)
        assert np.isfinite(out).all()

    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, rtol=1e-12)

    def test_dsigmoid_matches_finite_difference(self):
        x = np.linspace(-3, 3, 7)
        eps = 1e-6
        fd = (sigmoid(x + eps) - sigmoid(x - eps)) / (2 * eps)
        np.testing.assert_allclose(dsigmoid(sigmoid(x)), fd, rtol=1e-6)

    def test_dtanh_matches_finite_difference(self):
        x = np.linspace(-3, 3, 7)
        eps = 1e-6
        fd = (np.tanh(x + eps) - np.tanh(x - eps)) / (2 * eps)
        np.testing.assert_allclose(dtanh(np.tanh(x)), fd, rtol=1e-5)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).standard_normal((5, 7))
        np.testing.assert_allclose(softmax(logits).sum(axis=1), 1.0, rtol=1e-12)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_large_logits_stable(self):
        out = softmax(np.array([[1e4, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        logits = np.random.default_rng(1).standard_normal((3, 4))
        np.testing.assert_allclose(
            np.exp(log_softmax(logits)), softmax(logits), rtol=1e-12
        )

    @given(
        hnp.arrays(
            np.float64, (3, 5), elements=st.floats(-50, 50, allow_nan=False)
        )
    )
    def test_probabilities_valid(self, logits):
        p = softmax(logits)
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-9)


class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        logits = np.zeros((4, 8))
        targets = np.array([0, 1, 2, 3])
        loss, _ = cross_entropy_from_logits(logits, targets)
        assert loss == pytest.approx(np.log(8))

    def test_perfect_prediction_near_zero_loss(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss, _ = cross_entropy_from_logits(logits, np.array([1, 2]))
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((3, 5))
        targets = np.array([1, 0, 4])
        _, grad = cross_entropy_from_logits(logits, targets)
        eps = 1e-6
        for i in range(3):
            for j in range(5):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                fd = (
                    cross_entropy_from_logits(lp, targets)[0]
                    - cross_entropy_from_logits(lm, targets)[0]
                ) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 6))
        _, grad = cross_entropy_from_logits(logits, np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy_from_logits(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(ValueError):
            cross_entropy_from_logits(np.zeros(6), np.array([0]))
