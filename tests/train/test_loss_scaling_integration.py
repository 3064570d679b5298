"""Tests for loss scaling wired through the distributed trainer."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.train import assert_replicas_synchronized

from ..conformance.cells import conform
from ..conformance.reference import word_trainer


def make_trainer(loss_scale=None, **overrides):
    return word_trainer(2, loss_scale=loss_scale, **overrides)


class TestConfig:
    def test_valid_options(self):
        for value in (None, 512.0, 1024, "dynamic"):
            make_trainer(loss_scale=value)

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            make_trainer(loss_scale="adaptive")
        with pytest.raises(ValueError):
            make_trainer(loss_scale=0.5)

    @pytest.mark.parametrize("spec,scale", [
        ("fp16", 256.0), ("fp16:1024+delta", 256.0), ("auto", 256.0),
        ("fp16:2", "dynamic"), ("fp16+auto", "dynamic"),
    ])
    def test_fp16_wire_refuses_a_compounding_loss_scale(self, spec, scale):
        """Loss scale times the wire's own F would leave the FP16 range."""
        with pytest.raises(ConfigError, match="loss_scale"):
            make_trainer(loss_scale=scale, wire_codec=spec)

    @pytest.mark.parametrize("spec,scale", [
        ("fp16:1", 256.0), ("fp16:1+entropy", "dynamic"), ("fp16:1+auto", 256.0),
    ])
    def test_fp16_wire_takes_a_loss_scale_in_range(self, spec, scale):
        """With ``F = 1`` the loss scale is the only one: the pair trains
        (the fp16 class), for both models."""
        for model in ("word", "char"):
            conform(model=model, wire_codec=spec, loss_scale=scale)


class TestStaticScaling:
    def test_scaled_training_equals_unscaled(self):
        """Scale-then-unscale is exact in fp64: trajectories match."""
        plain = make_trainer(loss_scale=None)
        scaled = make_trainer(loss_scale=512.0)
        for _ in range(4):
            plain.train_step()
            scaled.train_step()
        for (n, a), (_, b) in zip(
            plain.replicas[0].named_parameters(),
            scaled.replicas[0].named_parameters(),
        ):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-10, err_msg=n)

    def test_no_steps_skipped_when_finite(self):
        tr = make_trainer(loss_scale=512.0)
        for _ in range(3):
            tr.train_step()
        assert tr.skipped_steps == 0
        assert_replicas_synchronized(tr.replicas, atol=0.0)


class TestDynamicScaling:
    def test_scale_grows_over_clean_steps(self):
        tr = make_trainer(loss_scale="dynamic")
        tr.scaler.growth_interval = 2
        s0 = tr.scaler.scale
        for _ in range(4):
            tr.train_step()
        assert tr.scaler.scale > s0
        assert tr.skipped_steps == 0

    def test_overflow_skips_update_and_backs_off(self):
        tr = make_trainer(loss_scale="dynamic")
        before = {
            n: p.data.copy()
            for n, p in tr.replicas[0].named_parameters()
        }
        s0 = tr.scaler.scale
        # Poison one parameter so the backward produces non-finite grads.
        for replica in tr.replicas:
            replica.projection.weight.data[0, 0] = np.inf
        tr.train_step()
        assert tr.skipped_steps == 1
        assert tr.scaler.scale == s0 / 2
        # No parameter moved (the poisoned value aside, which the update
        # skipping preserved too).
        after = dict(tr.replicas[0].named_parameters())
        for n, data in before.items():
            if n == "projection.weight":
                continue
            np.testing.assert_array_equal(after[n].data, data, err_msg=n)
        # Gradients were cleared for the next step.
        assert all(
            p.grad is None and not p.sparse_grads
            for r in tr.replicas
            for p in r.parameters()
        )

    def test_replicas_synchronized_through_skip(self):
        tr = make_trainer(loss_scale="dynamic")
        for replica in tr.replicas:
            replica.projection.weight.data[0, 0] = np.inf
        s0 = tr.scaler.scale
        tr.train_step()
        assert tr.skipped_steps == 1 and tr.scaler.scale == s0 / 2
        for replica in tr.replicas:
            replica.projection.weight.data[0, 0] = 0.0
        for _ in range(2):
            tr.train_step()
        assert_replicas_synchronized(tr.replicas, atol=0.0)
