"""End-to-end tests for the wire-compression policy in training.

The acceptance property of the whole stack: a lossless wire codec on
the unique-index ALLGATHER changes the bytes the ledger charges, and
*nothing else*.  The bit-exactness cells below run through the
conformance harness (:func:`tests.conformance.cells.conform`) against
the one written-out reference; the cost and threading checks stay
pairwise.
"""

import numpy as np
import pytest

from repro.data import BatchSpec
from repro.train import TrainConfig

from ..conformance.cells import conform
from ..conformance.reference import word_trainer
from ..helpers import assert_same_state


class TestConfigValidation:
    def test_wire_codec_spec_validated_eagerly(self):
        with pytest.raises(ValueError, match="unknown wire-codec"):
            TrainConfig(
                world_size=2, batch=BatchSpec(2, 6), base_lr=0.1,
                wire_codec="gzip",
            )

    def test_valid_specs_accepted(self):
        for spec in ("none", "auto", "fp16", "delta", "entropy", "fp16+delta"):
            TrainConfig(
                world_size=2, batch=BatchSpec(2, 6), base_lr=0.1,
                wire_codec=spec,
            )


class TestWireTrainerThreading:
    def test_none_spec_builds_no_policy(self):
        t = word_trainer(2, wire_codec="none")
        assert t.wire is None

    def test_delta_spec_builds_index_codec(self):
        t = word_trainer(2, wire_codec="delta")
        assert t.wire is not None
        assert t.wire.index_codec is not None

    def test_sanitized_policy(self):
        """The sanitizer on the funnel is what makes the policy's codecs
        the checking variants (``conform`` asserts that for every fixed
        codec of a sanitized cell)."""
        conform(observer="sanitize", wire_codec="delta", world_size=2, steps=1)
        plain = word_trainer(2, wire_codec="delta").wire.index_codec
        assert not type(plain).__name__.startswith("Sanitized")


class TestBitExactTraining:
    @pytest.mark.parametrize("spec", ["delta", "entropy"])
    def test_lossless_codec_training_is_bit_exact(self, spec):
        conform(wire_codec=spec, world_size=4, steps=6)

    def test_delta_codec_shrinks_wire_and_reports_factor(self):
        base = word_trainer(4)
        wired = word_trainer(4, wire_codec="delta")
        base.train_epoch(max_steps=6)
        wired.train_epoch(max_steps=6)
        assert (
            wired.comm.ledger.total_wire_bytes_per_rank
            < base.comm.ledger.total_wire_bytes_per_rank
        )
        assert wired.comm.ledger.compression_factor(":indices") > 1.0

    def test_explicit_none_matches_absent_policy_exactly(self):
        """``"none"`` builds no policy: the ledger equals the reference's."""
        trainer = conform(wire_codec="none", world_size=3, steps=4)
        assert trainer.wire is None


class TestFusedReduceTraining:
    """Fused compress-reduce on the dense-gradient allreduce: opting in
    must not move a single bit of the training trace."""

    def test_config_validation(self):
        cfg = TrainConfig(
            world_size=4, batch=BatchSpec(2, 6), base_lr=0.1,
            fused_reduce=True, mesh="tensor=2,data=2",
        )
        assert cfg.mesh_shape == (1, 2, 2)

    @pytest.mark.parametrize("spec", [None, "fp16"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fused_reduce_training_is_bit_exact(self, spec, seed):
        """5-seed differential: fused on/off, identical weights (fp16
        cells are only within rtol of the raw reference, so the two arms
        are also held to each other)."""
        plain, fused = [
            conform(
                fused_reduce=on, wire_codec=spec, init_seed=seed,
                data_seed=seed, world_size=4, steps=4,
            )
            for on in (False, True)
        ]
        assert_same_state(
            fused.replicas[0].state_dict(), plain.replicas[0].state_dict()
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fused_fp16_matches_uncompressed_trace(self, seed):
        """The fused ring without a codec adds no numerical noise of its
        own: bit-equal to the raw reference."""
        conform(
            fused_reduce=True, init_seed=seed, data_seed=seed, world_size=4,
            steps=4,
        )

    def test_fused_reduce_rejects_frame_codec_on_dense_grads(self):
        from repro.cluster import Communicator
        from repro.core.embedding_sync import GradientSynchronizer
        from repro.core.wire import DeltaBitpackCodec
        from repro.nn.parameter import Parameter

        from repro.core.wire import WirePolicy

        gs = GradientSynchronizer(
            Communicator(2),
            wire=WirePolicy(value_codec=DeltaBitpackCodec()),
            fused_reduce=True,
        )
        params = [Parameter(np.ones(8, np.float32)) for _ in range(2)]
        for p in params:
            p.grad = np.ones(8, np.float32)
        with pytest.raises(ValueError, match="summable"):
            gs._issue([
                gs._dense(
                    {"w": (params, np.stack([p.grad for p in params]))},
                    "dense", "dense",
                )
            ])

    def test_fused_reduce_composes_with_mesh(self):
        """The fused ring runs per data subgroup: the reference's weights,
        hop events tagged on the data axis."""
        fused = conform(mesh="tensor=2,data=2", world_size=4, fused_reduce=True)
        hops = [
            e for e in fused.comm.ledger.events if e.op == "fused_allreduce"
        ]
        assert hops and all(e.tag.startswith("data:") for e in hops)
