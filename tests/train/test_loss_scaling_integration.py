"""Tests for loss scaling wired through the distributed trainer."""

import numpy as np
import pytest

from repro.core import CompressionOverflowError
from repro.errors import ConfigError
from repro.train import DistributedTrainer, TrainConfig, assert_replicas_synchronized

from ..conformance.cells import conform
from ..conformance.reference import BATCH, CORPUS, MODELS, OPTIMIZERS, word_trainer
from ..helpers import assert_same_state


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
    ])
    def test_fp16_wire_refuses_a_compounding_loss_scale(self, spec, scale):
        """A static loss scale times the wire's own F would leave the
        FP16 range, and a static scale cannot back off."""
        with pytest.raises(ConfigError, match="loss_scale"):
            make_trainer(loss_scale=scale, wire_codec=spec)

    @pytest.mark.parametrize("spec,scale", [
        ("fp16:1", 256.0), ("fp16:1+entropy", "dynamic"), ("fp16:1+auto", 256.0),
        ("fp16:2", "dynamic"), ("fp16+auto", "dynamic"),
    ])
    def test_fp16_wire_takes_a_loss_scale_in_range(self, spec, scale):
        """A static scale with ``F = 1``, or a dynamic one with any F
        (which backs off where the wire overflows): the pair trains (the
        fp16 class), for both models."""
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
            p.grad is None and not p.sparse_grads and not p.stacked_grads
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


def poison_before_sync(trainer, poison):
    """Call ``poison(step, blocks)`` on the dense ``(ranks, ...)`` rank
    rows of every step (from 0), just before they enter the sync."""
    sync = trainer.synchronizer.sync_replicas

    def poisoned(replicas):
        (model,) = replicas
        blocks = [
            rows
            for p in model.parameters()
            for rows in p.stacked_grads
            if isinstance(rows, np.ndarray)
        ]
        poison(trainer.global_step, blocks)
        sync(replicas)

    trainer.synchronizer.sync_replicas = poisoned


def params_of(trainer) -> dict:
    return {n: p.data.copy() for n, p in trainer.model.named_parameters()}


class TestFp16WireOverflow:
    """An overflowing FP16 wire is decided by the one post-sync check."""

    def test_unscaled_overflow_raises_before_any_update(self):
        """Eight ranks of dense grads of 100.0 at F = 512: each rank's
        51,200 fits FP16, their sum does not."""
        tr = word_trainer(8, wire_codec="fp16", batched=False)

        def dense_100(step, blocks):
            for rows in blocks:
                rows[...] = 100.0

        poison_before_sync(tr, dense_100)
        before = params_of(tr)
        with pytest.raises(CompressionOverflowError) as exc:
            tr.train_step()
        msg = str(exc.value)
        first = next(
            n for n, p in tr.model.named_parameters() if p.grad is not None
        )
        assert f"gradient {first!r}" in msg
        assert "world 8" in msg and "F=512" in msg
        assert tr.global_step == 0
        assert_same_state(params_of(tr), before, "parameters")

    def test_dynamic_scale_starts_inside_the_fp16_wire(self):
        """At the default F = 512 the scale starts at 1024 / F = 2, so
        none of the first four steps overflows and is skipped."""
        tr = word_trainer(8, loss_scale="dynamic", wire_codec="fp16")
        assert tr.scaler.scale == 2.0
        for _ in range(4):
            tr.train_step()
        assert tr.skipped_steps == 0

    @pytest.mark.parametrize(
        "spec, scale",
        [(None, 1024.0), ("fp16:1", 1024.0), ("fp16:100", 8.0),
         ("fp16:65504", 1.0), ("auto", 2.0)],
    )
    def test_dynamic_scale_start_is_1024_over_f(self, spec, scale):
        """Rounded down to a power of two, and never below 1."""
        tr = word_trainer(2, loss_scale="dynamic", wire_codec=spec)
        assert tr.scaler.scale == scale

    def test_dynamic_scale_skips_the_overflowing_step_and_halves(self):
        cfg = TrainConfig(
            world_size=8, batch=BATCH, base_lr=0.2, loss_scale="dynamic",
            wire_codec="fp16:2", batched=False,
        )
        tr = DistributedTrainer(
            MODELS["word"], OPTIMIZERS["momentum"][0], CORPUS.train,
            CORPUS.valid, cfg,
        )

        def one_large(step, blocks):
            if step == 1:  # rank 3's first dense grad, on the second step
                blocks[0][3].flat[0] = 1e6  # x F = 2 leaves the FP16 range

        poison_before_sync(tr, one_large)
        tr.train_step()
        assert tr.skipped_steps == 0
        scale, params = tr.scaler.scale, params_of(tr)
        optimizer = tr.optimizer.state_dict()
        tr.train_step()
        assert tr.skipped_steps == 1
        assert tr.scaler.backoff_factor == 0.5
        assert tr.scaler.scale == scale * 0.5
        assert_same_state(params_of(tr), params, "parameters")
        assert_same_state(tr.optimizer.state_dict(), optimizer, "optimizer")
        tr.train_step()
        assert tr.skipped_steps == 1
        moved = params_of(tr)
        assert any(not np.array_equal(moved[n], params[n]) for n in params)
        assert_replicas_synchronized(tr.replicas, atol=0.0)
