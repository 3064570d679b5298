"""Tests for FP32-master-weight mixed-precision training."""

import numpy as np
import pytest

from repro.nn.parameter import Parameter, SparseGrad
from repro.optim import SGD, Adam
from repro.optim.mixed_precision import MasterWeightOptimizer


def fp16_param(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Parameter(rng.standard_normal(shape).astype(np.float16))


class TestUpdateSwamping:
    def test_tiny_updates_lost_in_pure_fp16(self):
        """The motivating failure: lr*grad below FP16 ulp at the weight's
        magnitude silently does nothing."""
        p = Parameter(np.ones(4, np.float16))
        opt = SGD([p], lr=1e-4)
        for _ in range(100):
            p.accumulate_grad(np.full(4, 1e-1, np.float16))  # step 1e-5
            opt.step()
        np.testing.assert_array_equal(p.data, np.ones(4, np.float16))

    def test_master_weights_accumulate_tiny_updates(self):
        """Same schedule with FP32 masters: the 100 * 1e-5 drift lands."""
        p = Parameter(np.ones(4, np.float16))
        opt = MasterWeightOptimizer(
            [p], lambda params, lr: SGD(params, lr), lr=1e-4
        )
        for _ in range(100):
            p.accumulate_grad(np.full(4, 1e-1, np.float16))
            opt.step()
        assert float(p.data[0]) == pytest.approx(1.0 - 1e-3, rel=0.01)


class TestSemantics:
    def test_matches_fp32_training_within_cast_noise(self):
        rng = np.random.default_rng(1)
        w32 = rng.standard_normal(8).astype(np.float32)
        p32 = Parameter(w32.copy())
        p16 = Parameter(w32.astype(np.float16))
        opt32 = SGD([p32], lr=0.1)
        opt16 = MasterWeightOptimizer(
            [p16], lambda params, lr: SGD(params, lr), lr=0.1
        )
        for i in range(20):
            g = rng.standard_normal(8).astype(np.float32) * 0.1
            p32.accumulate_grad(g)
            p16.accumulate_grad(g.astype(np.float16))
            opt32.step()
            opt16.step()
        np.testing.assert_allclose(
            p16.data.astype(np.float32), p32.data, atol=5e-3
        )

    def test_sparse_grads_flow_to_master(self):
        p = Parameter(np.zeros((4, 2), np.float16))
        opt = MasterWeightOptimizer(
            [p], lambda params, lr: SGD(params, lr), lr=1.0
        )
        p.accumulate_sparse_grad(
            SparseGrad(np.array([2]), np.ones((1, 2), np.float16))
        )
        opt.step()
        np.testing.assert_allclose(p.data[2].astype(np.float64), -1.0)
        np.testing.assert_allclose(p.data[[0, 1, 3]].astype(np.float64), 0.0)

    def test_live_arrays_are_updated_in_place(self):
        """The trainer's data-parallel replicas all bind the live arrays:
        a step or a restore that rebound ``p.data`` would leave every
        replica but one on the old weights."""
        p = fp16_param((3, 2))
        live = p.data
        opt = MasterWeightOptimizer(
            [p], lambda params, lr: SGD(params, lr), lr=0.5
        )
        saved = opt.state_dict()
        p.accumulate_grad(np.ones((3, 2), np.float16))
        opt.step()
        assert p.data is live and live.dtype == np.float16
        np.testing.assert_array_equal(
            live, opt.masters[0].data.astype(np.float16)
        )
        opt.load_state_dict(saved)
        assert p.data is live
        np.testing.assert_array_equal(live, saved["master0"].astype(np.float16))

    def test_live_grads_cleared(self):
        p = fp16_param(3)
        opt = MasterWeightOptimizer(
            [p], lambda params, lr: SGD(params, lr), lr=0.1
        )
        p.accumulate_grad(np.ones(3, np.float16))
        opt.step()
        assert p.grad is None and not p.sparse_grads

    def test_works_with_adam_inner(self):
        p = Parameter(np.array([5.0], np.float16))
        opt = MasterWeightOptimizer(
            [p], lambda params, lr: Adam(params, lr), lr=0.5
        )
        for _ in range(200):
            p.accumulate_grad((2 * p.data.astype(np.float32)).astype(np.float16))
            opt.step()
        assert abs(float(p.data[0])) < 0.05

    def test_lr_property_proxies_inner(self):
        p = fp16_param(2)
        opt = MasterWeightOptimizer(
            [p], lambda params, lr: SGD(params, lr), lr=0.1
        )
        opt.lr = 0.05
        assert opt.inner.lr == 0.05


class TestStateDict:
    def test_roundtrip(self):
        p = fp16_param(4, seed=2)
        opt = MasterWeightOptimizer(
            [p], lambda params, lr: Adam(params, lr), lr=0.01
        )
        p.accumulate_grad(np.ones(4, np.float16))
        opt.step()
        state = opt.state_dict()

        q = fp16_param(4, seed=9)  # different init
        opt2 = MasterWeightOptimizer(
            [q], lambda params, lr: Adam(params, lr), lr=0.01
        )
        opt2.load_state_dict(state)
        np.testing.assert_array_equal(q.data, p.data)
        # Continue identically.
        for o, r in ((opt, p), (opt2, q)):
            r.accumulate_grad(np.full(4, 0.5, np.float16))
            o.step()
        np.testing.assert_array_equal(p.data, q.data)

    def test_shape_mismatch_rejected(self):
        p = fp16_param(4)
        opt = MasterWeightOptimizer(
            [p], lambda params, lr: SGD(params, lr), lr=0.1
        )
        state = opt.state_dict()
        state["master0"] = np.zeros(9, np.float32)
        with pytest.raises(ValueError):
            opt.load_state_dict(state)


class TestValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            MasterWeightOptimizer([], lambda p, lr: SGD(p, lr), lr=0.1)

    def test_non_float_master_rejected(self):
        with pytest.raises(ValueError):
            MasterWeightOptimizer(
                [fp16_param(2)], lambda p, lr: SGD(p, lr), lr=0.1,
                master_dtype=np.int64,
            )
