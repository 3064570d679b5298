"""Tests for checkpoint save/resume and state dicts."""

import numpy as np
import pytest

from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.nn import Linear, Module, Parameter
from repro.optim import SGD, Adam
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    load_checkpoint,
    save_checkpoint,
)

VOCAB = 60
WORD_CFG = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6, num_samples=8
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)


def word_trainer(world=2, seed_offset=0):
    cfg = TrainConfig(
        world_size=world, batch=BatchSpec(2, 6), base_lr=0.2,
        init_seed=1234 + seed_offset,
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train, CORPUS.valid, cfg,
    )


def char_trainer(world=2):
    cfg = TrainConfig(world_size=world, batch=BatchSpec(2, 6), base_lr=1e-3)
    mcfg = CharLMConfig(vocab_size=VOCAB, embedding_dim=6, hidden_dim=8,
                        depth=2, dropout=0.0)
    return DistributedTrainer(
        lambda rng, rank: CharLanguageModel(
            mcfg, rng, dropout_rng=np.random.default_rng(rank)
        ),
        lambda params, lr: Adam(params, lr),
        CORPUS.train, CORPUS.valid, cfg,
    )


class TestModuleStateDict:
    def test_roundtrip(self):
        m = Linear(3, 4, np.random.default_rng(0))
        state = m.state_dict()
        m.weight.data[:] = 0.0
        m.load_state_dict(state)
        assert m.weight.data.any()

    def test_load_writes_in_place(self):
        """Whatever binds the parameter arrays — another replica, a
        decoder's alias — must see the load: same objects, new values,
        cast to the parameter's dtype."""
        m = Linear(3, 4, np.random.default_rng(0), dtype=np.float32)
        weight, bias = m.weight.data, m.bias.data
        state = {k: v.astype(np.float64) + 1.0 for k, v in m.state_dict().items()}
        m.load_state_dict(state)
        assert m.weight.data is weight and m.bias.data is bias
        assert weight.dtype == np.float32
        np.testing.assert_array_equal(
            weight, state["weight"].astype(np.float32)
        )

    def test_rejected_state_changes_nothing(self):
        m = Linear(3, 4, np.random.default_rng(0))
        before = m.state_dict()
        bad = {"weight": np.zeros((3, 4)), "bias": np.zeros(9)}
        with pytest.raises(ValueError):
            m.load_state_dict(bad)
        for name, data in m.state_dict().items():
            np.testing.assert_array_equal(data, before[name])

    def test_state_is_a_copy(self):
        m = Linear(3, 4, np.random.default_rng(0))
        state = m.state_dict()
        state["weight"][:] = 99.0
        assert not (m.weight.data == 99.0).any()

    def test_mismatched_names_rejected(self):
        m = Linear(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            m.load_state_dict({"weight": m.weight.data})  # missing bias
        with pytest.raises(ValueError):
            m.load_state_dict(m.state_dict() | {"extra": np.zeros(1)})

    def test_mismatched_shape_rejected(self):
        m = Linear(3, 4, np.random.default_rng(0))
        bad = m.state_dict()
        bad["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            m.load_state_dict(bad)

    def test_nested_modules(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 2, np.random.default_rng(1))
                self.b = Parameter(np.ones(3))

        net = Net()
        state = net.state_dict()
        assert set(state) == {"a.weight", "a.bias", "b"}
        net.b.data[:] = 7.0
        net.load_state_dict(state)
        np.testing.assert_allclose(net.b.data, 1.0)


class TestOptimizerStateDict:
    def test_sgd_roundtrip(self):
        p = Parameter(np.zeros(2))
        opt = SGD([p], lr=0.5, clip_norm=2.0)
        state = opt.state_dict()
        opt2 = SGD([p], lr=0.1)
        opt2.load_state_dict(state)
        assert opt2.lr == 0.5
        assert opt2.clip_norm == 2.0

    def test_adam_roundtrip_preserves_moments(self):
        p = Parameter(np.zeros((3, 2)))
        opt = Adam([p], lr=0.01)
        p.accumulate_grad(np.ones((3, 2)))
        opt.step()
        state = opt.state_dict()

        p2 = Parameter(np.zeros((3, 2)))
        opt2 = Adam([p2], lr=0.01)
        opt2.load_state_dict(state)
        # Both continue identically from here.
        for o, q in ((opt, p), (opt2, p2)):
            q.data[:] = 0.0
            q.accumulate_grad(np.full((3, 2), 0.5))
            o.step()
        np.testing.assert_allclose(p.data, p2.data, rtol=1e-12)

    def test_adam_shape_mismatch_rejected(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.01)
        state = opt.state_dict()
        state["m0"] = np.zeros(5)
        with pytest.raises(ValueError):
            opt.load_state_dict(state)


class TestCheckpointRoundtrip:
    def test_resume_is_bit_identical(self, tmp_path):
        """Train 4 steps, checkpoint, train 4 more; vs 8 straight."""
        straight = word_trainer()
        resumed = word_trainer()
        for _ in range(4):
            straight.train_step()
            resumed.train_step()
        ckpt = tmp_path / "step4.npz"
        save_checkpoint(ckpt, resumed)

        # A fresh trainer with *different* init must land on the
        # checkpointed weights exactly.
        fresh = word_trainer(seed_offset=999)
        step = load_checkpoint(ckpt, fresh)
        assert step == 4
        for _ in range(4):
            straight.train_step()
            fresh.train_step()
        for (n, a), (_, b) in zip(
            straight.replicas[0].named_parameters(),
            fresh.replicas[0].named_parameters(),
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=n)

    def test_adam_trainer_resume(self, tmp_path):
        tr = char_trainer()
        for _ in range(3):
            tr.train_step()
        ckpt = tmp_path / "char.npz"
        save_checkpoint(ckpt, tr)
        fresh = char_trainer()
        load_checkpoint(ckpt, fresh)
        tr.train_step()
        fresh.train_step()
        for (n, a), (_, b) in zip(
            tr.replicas[0].named_parameters(),
            fresh.replicas[0].named_parameters(),
        ):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-12, err_msg=n)

    def test_all_replicas_restored(self, tmp_path):
        tr = word_trainer(world=3)
        tr.train_step()
        ckpt = tmp_path / "w3.npz"
        save_checkpoint(ckpt, tr)
        fresh = word_trainer(world=3, seed_offset=5)
        load_checkpoint(ckpt, fresh)
        from repro.train import assert_replicas_synchronized

        assert_replicas_synchronized(fresh.replicas, atol=0.0)

    def test_world_size_mismatch_rejected(self, tmp_path):
        tr = word_trainer(world=2)
        ckpt = tmp_path / "w2.npz"
        save_checkpoint(ckpt, tr)
        with pytest.raises(ValueError):
            load_checkpoint(ckpt, word_trainer(world=4))

    def test_dynamic_scaler_state_restored(self, tmp_path):
        def scaled_trainer():
            cfg = TrainConfig(
                world_size=2, batch=BatchSpec(2, 6), base_lr=0.2,
                loss_scale="dynamic",
            )
            return DistributedTrainer(
                lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
                lambda params, lr: SGD(params, lr),
                CORPUS.train, CORPUS.valid, cfg,
            )

        tr = scaled_trainer()
        tr.scaler.growth_interval = 2
        for _ in range(5):
            tr.train_step()
        assert tr.scaler.scale > 1024.0  # grew at least once
        ckpt = tmp_path / "scaled.npz"
        save_checkpoint(ckpt, tr)

        fresh = scaled_trainer()
        fresh.scaler.growth_interval = 2
        load_checkpoint(ckpt, fresh)
        assert fresh.scaler.scale == tr.scaler.scale
        assert fresh.scaler._clean_steps == tr.scaler._clean_steps
        assert fresh.skipped_steps == tr.skipped_steps
        # Continuation is bit-identical.
        tr.train_step()
        fresh.train_step()
        for (n, a), (_, b) in zip(
            tr.replicas[0].named_parameters(),
            fresh.replicas[0].named_parameters(),
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=n)

    def test_scaler_checkpoint_requires_scaler_trainer(self, tmp_path):
        cfg = TrainConfig(
            world_size=2, batch=BatchSpec(2, 6), base_lr=0.2,
            loss_scale=512.0,
        )
        tr = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
            lambda params, lr: SGD(params, lr),
            CORPUS.train, CORPUS.valid, cfg,
        )
        ckpt = tmp_path / "static.npz"
        save_checkpoint(ckpt, tr)
        with pytest.raises(ValueError):
            load_checkpoint(ckpt, word_trainer())

    def test_diverged_replicas_refuse_to_checkpoint(self, tmp_path):
        """A replica whose ``p.data`` was rebound no longer trains the
        shared model; checkpointing would silently pick one of two."""
        tr = word_trainer()
        weight = tr.replicas[1].embedding.weight
        weight.data = weight.data.copy()
        save_checkpoint(tmp_path / "equal.npz", tr)  # rebound but bit-equal
        weight.data[0, 0] += 1.0
        with pytest.raises(AssertionError):
            save_checkpoint(tmp_path / "bad.npz", tr)

    def test_nan_in_a_rebound_replica_refuses_to_checkpoint(self, tmp_path):
        """``max(0.0, nan) == 0.0`` used to let this checkpoint through."""
        tr = word_trainer()
        weight = tr.replicas[1].embedding.weight
        weight.data = weight.data.copy()
        weight.data[0, 0] = np.nan
        with pytest.raises(AssertionError):
            save_checkpoint(tmp_path / "nan.npz", tr)

    @pytest.mark.parametrize("make", [word_trainer, char_trainer])
    def test_load_keeps_replicas_on_one_parameter_set(self, tmp_path, make):
        tr = make(world=3)
        tr.train_step()
        ckpt = tmp_path / "shared.npz"
        save_checkpoint(ckpt, tr)
        fresh = make(world=3)
        arrays = [p.data for p in fresh.replicas[0].parameters()]
        load_checkpoint(ckpt, fresh)
        for replica in fresh.replicas:
            for p, data in zip(replica.parameters(), arrays, strict=True):
                assert p.data is data
        for (n, a), (_, b) in zip(
            tr.replicas[0].named_parameters(),
            fresh.replicas[2].named_parameters(),
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=n)
        assert fresh.batched_executor.step(
            fresh.batcher.step_batches(0), sample_rngs=fresh._sample_rngs
        ) is not None  # the load did not trip the storage tripwire


class TestRngLimbEncoding:
    def test_roundtrip_exact_128_bit(self):
        from repro.train.checkpoint import (
            _decode_rng_state,
            _encode_rng_state,
        )

        rng = np.random.default_rng(123)
        rng.random(7)  # advance so has_uint32/uinteger may be set
        rng.integers(0, 10)
        state = rng.bit_generator.state
        limbs = _encode_rng_state(state)
        assert limbs.dtype == np.uint64 and limbs.shape == (6,)
        decoded = _decode_rng_state(limbs)
        assert decoded == state

    def test_non_pcg64_rejected(self):
        from repro.train.checkpoint import _encode_rng_state

        with pytest.raises(ValueError, match="PCG64"):
            _encode_rng_state({"bit_generator": "MT19937", "state": {}})

    def test_wrong_shape_rejected(self):
        from repro.train.checkpoint import _decode_rng_state

        with pytest.raises(ValueError):
            _decode_rng_state(np.zeros(5, dtype=np.uint64))


def dropout_trainer(world=2):
    """A char trainer whose steps consume per-replica dropout streams —
    the case checkpoint v1 could not resume bit-exactly."""
    cfg = TrainConfig(world_size=world, batch=BatchSpec(2, 6), base_lr=1e-3)
    mcfg = CharLMConfig(vocab_size=VOCAB, embedding_dim=6, hidden_dim=8,
                        depth=2, dropout=0.25)
    return DistributedTrainer(
        lambda rng, rank: CharLanguageModel(
            mcfg, rng, dropout_rng=np.random.default_rng(rank)
        ),
        lambda params, lr: Adam(params, lr),
        CORPUS.train, CORPUS.valid, cfg,
    )


class TestCheckpointV2:
    def test_version_is_two(self, tmp_path):
        tr = word_trainer()
        ckpt = tmp_path / "v2.npz"
        save_checkpoint(ckpt, tr)
        with np.load(ckpt) as data:
            assert int(data["meta/version"]) == 2
            rng_keys = [k for k in data.files if k.startswith("rng/")]
            assert "rng/strategy" in rng_keys
            assert "rng/group_of_rank" in rng_keys
            assert "rng/seed_of_group" in rng_keys

    def test_dropout_resume_is_bit_identical(self, tmp_path):
        """The v1 bug: resumed runs re-seeded dropout streams.  v2 must
        continue a dropout model bit-exactly."""
        straight = dropout_trainer()
        victim = dropout_trainer()
        for _ in range(3):
            straight.train_step()
            victim.train_step()
        ckpt = tmp_path / "dropout.npz"
        save_checkpoint(ckpt, victim)

        fresh = dropout_trainer()
        assert load_checkpoint(ckpt, fresh) == 3
        for _ in range(2):
            straight.train_step()
            fresh.train_step()
        for (n, a), (_, b) in zip(
            straight.replicas[0].named_parameters(),
            fresh.replicas[0].named_parameters(),
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=n)

    def test_per_replica_streams_saved_separately(self, tmp_path):
        tr = dropout_trainer(world=3)
        tr.train_step()
        ckpt = tmp_path / "streams.npz"
        save_checkpoint(ckpt, tr)
        with np.load(ckpt) as data:
            replica_keys = [
                k for k in data.files if k.startswith("rng/replica")
            ]
        assert len(replica_keys) == 3  # one dropout stream per replica
        assert {k.split("/")[1] for k in replica_keys} == {
            "replica0", "replica1", "replica2"
        }

    def test_seed_assignment_restored(self, tmp_path):
        tr = word_trainer()
        for _ in range(2):
            tr.train_step()
        ckpt = tmp_path / "seeds.npz"
        save_checkpoint(ckpt, tr)
        fresh = word_trainer(seed_offset=42)
        load_checkpoint(ckpt, fresh)
        assert fresh.seed_assignment.strategy == tr.seed_assignment.strategy
        np.testing.assert_array_equal(
            fresh.seed_assignment.group_of_rank,
            tr.seed_assignment.group_of_rank,
        )
        np.testing.assert_array_equal(
            fresh.seed_assignment.seed_of_group,
            tr.seed_assignment.seed_of_group,
        )

    def test_v1_checkpoint_still_loads(self, tmp_path):
        """A version-1 file (no rng/ arrays) restores weights and
        counters; RNG streams are simply left as built."""
        tr = dropout_trainer()
        for _ in range(2):
            tr.train_step()
        v2 = tmp_path / "modern.npz"
        save_checkpoint(v2, tr)
        with np.load(v2) as data:
            arrays = {
                k: data[k] for k in data.files if not k.startswith("rng/")
            }
        arrays["meta/version"] = np.array(1)
        v1 = tmp_path / "legacy.npz"
        np.savez(v1, **arrays)

        fresh = dropout_trainer()
        before_streams = [r.rng_state() for r in fresh.replicas]
        assert load_checkpoint(v1, fresh) == 2
        assert fresh.global_step == 2
        for (n, a), (_, b) in zip(
            tr.replicas[0].named_parameters(),
            fresh.replicas[0].named_parameters(),
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=n)
        # v1 carries no streams: the trainer keeps its own.
        assert [r.rng_state() for r in fresh.replicas] == before_streams

    def test_unsupported_version_rejected(self, tmp_path):
        tr = word_trainer()
        ckpt = tmp_path / "future.npz"
        save_checkpoint(ckpt, tr)
        with np.load(ckpt) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["meta/version"] = np.array(99)
        bad = tmp_path / "v99.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint"):
            load_checkpoint(bad, word_trainer())


class TestElasticLoad:
    def test_shrunken_world_adopts_dense_reindexing(self, tmp_path):
        tr = dropout_trainer(world=3)
        for _ in range(2):
            tr.train_step()
        ckpt = tmp_path / "w3.npz"
        save_checkpoint(ckpt, tr)

        survivor = dropout_trainer(world=2)
        assert load_checkpoint(ckpt, survivor, elastic=True) == 2
        from repro.train import assert_replicas_synchronized

        assert_replicas_synchronized(survivor.replicas, atol=0.0)
        # New rank r adopted saved replica r's streams.
        with np.load(ckpt) as data:
            from repro.train.checkpoint import _decode_rng_state

            saved = {
                k: _decode_rng_state(data[k])
                for k in data.files
                if k.startswith("rng/replica")
            }
        for rank, replica in enumerate(survivor.replicas):
            for mod_path, state in replica.rng_state().items():
                assert state == saved[f"rng/replica{rank}/{mod_path}"]
        survivor.train_step()  # the shrunken trainer keeps working

    def test_elastic_growth_rejected(self, tmp_path):
        tr = word_trainer(world=2)
        ckpt = tmp_path / "w2.npz"
        save_checkpoint(ckpt, tr)
        with pytest.raises(ValueError, match="cannot grow"):
            load_checkpoint(ckpt, word_trainer(world=4), elastic=True)

    def test_elastic_same_world_is_plain_restore(self, tmp_path):
        tr = word_trainer(world=2)
        tr.train_step()
        ckpt = tmp_path / "same.npz"
        save_checkpoint(ckpt, tr)
        fresh = word_trainer(world=2, seed_offset=9)
        assert load_checkpoint(ckpt, fresh, elastic=True) == 1
