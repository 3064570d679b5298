"""End-to-end tests for the wire-compression policy in training.

The acceptance property of the whole stack: a lossless wire codec on
the unique-index ALLGATHER changes the bytes the ledger charges, and
*nothing else* — training traces are bit-exact against the
uncompressed baseline, step for step, weight for weight.
"""

import numpy as np
import pytest

from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

VOCAB = 60
WORD_CFG = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6,
    num_samples=8,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)


def word_trainer(world=4, comm=None, **cfg_overrides):
    cfg = TrainConfig(
        world_size=world,
        batch=BatchSpec(2, 6),
        base_lr=0.2,
        **cfg_overrides,
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train,
        CORPUS.valid,
        cfg,
        comm=comm,
    )


def _weights(trainer):
    return {
        name: p.data.copy()
        for name, p in trainer.replicas[0].named_parameters()
    }


class TestConfigValidation:
    def test_wire_codec_spec_validated_eagerly(self):
        with pytest.raises(ValueError, match="unknown wire-codec"):
            TrainConfig(
                world_size=2, batch=BatchSpec(2, 6), base_lr=0.1,
                wire_codec="gzip",
            )

    def test_chunk_bytes_requires_codec(self):
        with pytest.raises(ValueError, match="requires wire_codec"):
            TrainConfig(
                world_size=2, batch=BatchSpec(2, 6), base_lr=0.1,
                wire_chunk_bytes=4096,
            )
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(
                world_size=2, batch=BatchSpec(2, 6), base_lr=0.1,
                wire_codec="delta", wire_chunk_bytes=0,
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
        t = word_trainer(2, wire_codec="delta", wire_chunk_bytes=2048)
        assert t.wire is not None
        assert t.wire.index_codec is not None
        assert t.wire.chunk_bytes == 2048

    def test_sanitized_policy(self):
        from repro.analysis.sanitizer import SanitizedWireCodec, Sanitizer
        from repro.cluster import Communicator

        comm = Communicator(2, track_memory=False)
        Sanitizer(comm)
        t = word_trainer(2, comm=comm, wire_codec="delta")
        assert isinstance(t.wire.index_codec, SanitizedWireCodec)
        assert not isinstance(
            word_trainer(2, wire_codec="delta").wire.index_codec,
            SanitizedWireCodec,
        )


class TestBitExactTraining:
    @pytest.mark.parametrize(
        "spec,chunk", [("delta", None), ("delta", 512), ("entropy", None)]
    )
    def test_lossless_codec_training_is_bit_exact(self, spec, chunk):
        base = word_trainer(4)
        wired = word_trainer(4, wire_codec=spec, wire_chunk_bytes=chunk)
        base.train_epoch(max_steps=6)
        wired.train_epoch(max_steps=6)
        wb, ww = _weights(base), _weights(wired)
        assert set(wb) == set(ww)
        for name in wb:
            np.testing.assert_array_equal(
                wb[name], ww[name], err_msg=f"weight {name} diverged"
            )

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
        plain = word_trainer(3)
        none = word_trainer(3, wire_codec="none")
        plain.train_epoch(max_steps=4)
        none.train_epoch(max_steps=4)
        assert (
            plain.comm.ledger.total_wire_bytes_per_rank
            == none.comm.ledger.total_wire_bytes_per_rank
        )
        wp, wn = _weights(plain), _weights(none)
        for name in wp:
            np.testing.assert_array_equal(wp[name], wn[name])


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
        """5-seed differential: fused on/off, identical weights."""
        kw = {} if spec is None else {"wire_codec": spec}
        plain = word_trainer(4, init_seed=seed, data_seed=seed, **kw)
        fused = word_trainer(
            4, init_seed=seed, data_seed=seed, fused_reduce=True, **kw
        )
        plain.train_epoch(max_steps=4)
        fused.train_epoch(max_steps=4)
        wp, wf = _weights(plain), _weights(fused)
        assert set(wp) == set(wf)
        for name in wp:
            np.testing.assert_array_equal(
                wp[name], wf[name], err_msg=f"weight {name} diverged"
            )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fused_fp16_matches_uncompressed_trace(self, seed):
        """5-seed differential against the raw uncompressed baseline.

        The fp16 value codec only engages above the selector-free
        policy's size floor; at this model size every dense gradient is
        below it, so the fused fp16 run must equal the raw run exactly
        (and the fused machinery adds no numerical noise of its own).
        """
        base = word_trainer(4, init_seed=seed, data_seed=seed)
        fused = word_trainer(
            4, init_seed=seed, data_seed=seed, fused_reduce=True
        )
        base.train_epoch(max_steps=4)
        fused.train_epoch(max_steps=4)
        wb, wf = _weights(base), _weights(fused)
        for name in wb:
            np.testing.assert_array_equal(wb[name], wf[name])

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
            gs._issue_dense({"w": params}, tag="dense")

    def test_fused_reduce_composes_with_mesh(self):
        """The fused ring runs per data subgroup: same weights as the
        unfused mesh run, hop events tagged on the data axis."""
        plain = word_trainer(4, mesh="tensor=2,data=2")
        fused = word_trainer(4, mesh="tensor=2,data=2", fused_reduce=True)
        plain.train_epoch(max_steps=3)
        fused.train_epoch(max_steps=3)
        wp, wf = _weights(plain), _weights(fused)
        for name in wp:
            np.testing.assert_array_equal(wp[name], wf[name])
        hops = [
            e for e in fused.comm.ledger.events if e.op == "fused_allreduce"
        ]
        assert hops and all(e.tag.startswith("data:") for e in hops)
