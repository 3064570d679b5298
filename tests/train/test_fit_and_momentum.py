"""Tests for SGD momentum."""

import numpy as np
import pytest

from repro.nn.parameter import Parameter, SparseGrad
from repro.optim import SGD


class TestMomentum:
    def test_zero_momentum_matches_plain(self):
        a, b = Parameter(np.ones(3)), Parameter(np.ones(3))
        oa, ob = SGD([a], lr=0.1), SGD([b], lr=0.1, momentum=0.0)
        for _ in range(3):
            a.accumulate_grad(np.ones(3))
            b.accumulate_grad(np.ones(3))
            oa.step()
            ob.step()
        np.testing.assert_array_equal(a.data, b.data)

    def test_momentum_accumulates_velocity(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.accumulate_grad(np.ones(1))
        opt.step()  # v = 1, w = -1
        p.accumulate_grad(np.ones(1))
        opt.step()  # v = 1.9, w = -2.9
        assert p.data[0] == pytest.approx(-2.9)

    def test_momentum_continues_without_gradient_rows(self):
        """Lazy sparse momentum: untouched rows keep their velocity but
        only apply it when touched again (standard sparse convention)."""
        p = Parameter(np.zeros((2, 1)))
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.accumulate_sparse_grad(SparseGrad(np.array([0]), np.ones((1, 1))))
        opt.step()  # row 0: v=1 -> w=-1
        p.accumulate_sparse_grad(SparseGrad(np.array([0]), np.ones((1, 1))))
        opt.step()  # row 0: v=1.5 -> w=-2.5
        assert p.data[0, 0] == pytest.approx(-2.5)
        assert p.data[1, 0] == 0.0

    def test_momentum_accelerates_on_constant_gradient(self):
        plain = Parameter(np.zeros(1))
        heavy = Parameter(np.zeros(1))
        op, oh = SGD([plain], lr=0.1), SGD([heavy], lr=0.1, momentum=0.9)
        for _ in range(20):
            plain.accumulate_grad(np.ones(1))
            heavy.accumulate_grad(np.ones(1))
            op.step()
            oh.step()
        assert heavy.data[0] < plain.data[0] < 0

    def test_state_dict_roundtrip(self):
        p = Parameter(np.zeros(2))
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.accumulate_grad(np.ones(2))
        opt.step()
        state = opt.state_dict()
        q = Parameter(p.data.copy())
        opt2 = SGD([q], lr=0.1, momentum=0.9)
        opt2.load_state_dict(state)
        p.accumulate_grad(np.ones(2))
        q.accumulate_grad(np.ones(2))
        opt.step()
        opt2.step()
        np.testing.assert_array_equal(p.data, q.data)

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=-0.1)
