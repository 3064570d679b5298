"""Regression pin: batched rank execution is bit-identical to the loop.

The simulator fast path (:mod:`repro.nn.batched`) stacks all replicas'
forward/backward along a leading rank axis — through the same layer
bodies the per-rank call runs — over the one parameter set every
replica binds.  Its contract is **bit-for-bit** equivalence with the
per-rank loop, for every model built from the replica-axis layers (the
word LM with sampled softmax and the char LM with dropout both run
here): losses, parameters, optimizer state,
dropout and candidate-sampler RNG consumption, carried BPTT state and
the communication ledger must all match exactly, across seeds.  Anything
weaker would make a "performance" toggle silently change training
results.
"""

import numpy as np
import pytest

from repro.data.batching import BatchSpec
from repro.nn.batched import build_batched_executor
from repro.optim.adam import Adam
from repro.optim.sgd import SGD
from repro.train.char_lm import CharLanguageModel
from repro.train.config import CharLMConfig, TrainConfig, WordLMConfig
from repro.train.trainer import DistributedTrainer, max_replica_divergence
from repro.train.word_lm import WordLanguageModel

from ..helpers import assert_same_state

MODEL_CFG = CharLMConfig(
    vocab_size=61, embedding_dim=7, hidden_dim=11, depth=3, dropout=0.2
)
WORD_CFG = WordLMConfig(
    vocab_size=61, embedding_dim=7, hidden_dim=11, projection_dim=5,
    num_samples=9,
)
MODELS = ("char", "word")


def _make_trainer(batched, seed, model="char", word_cfg=WORD_CFG, **overrides):
    rng = np.random.default_rng(seed)
    train = rng.integers(0, MODEL_CFG.vocab_size, size=6000).astype(np.int64)
    valid = rng.integers(0, MODEL_CFG.vocab_size, size=900).astype(np.int64)
    cfg = TrainConfig(
        world_size=overrides.pop("world_size", 4),
        batch=BatchSpec(3, 5),
        base_lr=4e-3 if model == "char" else 0.2,
        init_seed=seed,
        data_seed=seed + 1,
        batched=batched,
        **overrides,
    )

    if model == "char":
        def factory(init_rng, rank):
            return CharLanguageModel(
                MODEL_CFG,
                init_rng,
                dropout_rng=np.random.default_rng((seed, rank)),
                stateful=True,
            )

        optimizer = lambda p, lr: Adam(p, lr)
    else:
        def factory(init_rng, rank):
            return WordLanguageModel(word_cfg, init_rng, stateful=True)

        # Odd seeds also cover the momentum buffers.
        optimizer = lambda p, lr: SGD(p, lr, momentum=0.5 * (seed % 2))

    trainer = DistributedTrainer(factory, optimizer, train, valid, cfg)
    # Keep every sample generator the trainer hands out, so the test can
    # compare how far each was consumed.
    trainer.sample_rngs_seen = []
    make = trainer._sample_rngs

    def recording():
        rngs = make()
        trainer.sample_rngs_seen.append(rngs)
        return rngs

    trainer._sample_rngs = recording
    return trainer


def _states(model):
    state = model._state
    if state is None:
        return None
    return state if isinstance(state, tuple) else (state,)


def _assert_identical(fast, slow):
    for ra, rb in zip(fast.replicas, slow.replicas):
        for (name, pa), (_, pb) in zip(
            ra.named_parameters(), rb.named_parameters()
        ):
            assert np.array_equal(pa.data, pb.data), name
        sa, sb = _states(ra), _states(rb)
        assert (sa is None) == (sb is None)
        if sa is not None:
            for a, b in zip(sa, sb, strict=True):
                assert np.array_equal(a, b)
        assert ra.rng_state() == rb.rng_state()
    assert_same_state(
        fast.optimizer.state_dict(), slow.optimizer.state_dict(), "optimizer"
    )
    assert max_replica_divergence(fast.replicas) == 0.0
    # Candidate draws: the word LM's fast path must have consumed each
    # rank's sample generator exactly as far as the loop did (the char
    # LM's never asks for them).
    if isinstance(fast.replicas[0], WordLanguageModel):
        assert len(fast.sample_rngs_seen) == len(slow.sample_rngs_seen)
        for fa, sl in zip(fast.sample_rngs_seen, slow.sample_rngs_seen):
            for ga, gb in zip(fa, sl, strict=True):
                assert ga.bit_generator.state == gb.bit_generator.state
    else:
        assert not fast.sample_rngs_seen
    # Same collectives in the same order: each event carries its wire
    # bytes, its logical (pre-codec) payload bytes and its simulated time.
    assert fast.comm.ledger.events == slow.comm.ledger.events


@pytest.mark.parametrize(
    "model,seed",
    [(m, s) for m in MODELS for s in range(5)],
    ids=[str(s) if m == "char" else f"{m}-{s}" for m in MODELS for s in range(5)],
)
def test_batched_matches_per_rank_loop(model, seed):
    """Five-seed differential: losses + full state identical after 8 steps."""
    fast = _make_trainer(True, seed, model, accumulation_steps=2)
    slow = _make_trainer(False, seed, model, accumulation_steps=2)
    assert fast.batched_executor is not None
    assert slow.batched_executor is None
    fast_losses = [fast.train_step() for _ in range(8)]
    slow_losses = [slow.train_step() for _ in range(8)]
    assert fast_losses == slow_losses
    assert fast.batched_executor._calls == 16  # no micro-step fell back
    _assert_identical(fast, slow)


@pytest.mark.parametrize("seed", range(5))
def test_word_lm_shared_grads_and_row_replication(seed):
    """No accumulation, no scaler: nothing touches the synced grads (one
    object on every replica) between the sync and the one SGD step over
    the shared rows — 3 steps, tied embeddings on odd seeds."""
    cfg = WORD_CFG
    if seed % 2:
        cfg = WordLMConfig(
            vocab_size=61, embedding_dim=7, hidden_dim=11, projection_dim=7,
            num_samples=9, tie_embeddings=True,
        )
    fast = _make_trainer(True, seed, "word", cfg, world_size=5)
    slow = _make_trainer(False, seed, "word", cfg, world_size=5)
    assert [fast.train_step() for _ in range(3)] == [
        slow.train_step() for _ in range(3)
    ]
    _assert_identical(fast, slow)


def test_batched_matches_under_overlap_and_loss_scale():
    for model in MODELS:
        kwargs = dict(
            overlap=True, compute_seconds_per_step=1e-3, loss_scale=256.0
        )
        fast = _make_trainer(True, 11, model, **kwargs)
        slow = _make_trainer(False, 11, model, **kwargs)
        assert [fast.train_step() for _ in range(5)] == [
            slow.train_step() for _ in range(5)
        ]
        _assert_identical(fast, slow)
        # The overlapped schedule's *ledger* must agree too: the fast
        # path only changes host wall-clock, never simulated cost
        # accounting.
        assert (
            fast.comm.ledger.total_wire_bytes_per_rank
            == slow.comm.ledger.total_wire_bytes_per_rank
        )
        assert fast.comm.ledger.total_time_s == slow.comm.ledger.total_time_s


def test_batched_epoch_with_evals_matches():
    """Full epoch incl. eval (training-flag flips) stays bit-exact."""
    for model in MODELS:
        fast = _make_trainer(True, 21, model)
        slow = _make_trainer(False, 21, model)
        sa = fast.train_epoch(max_steps=6, evals_per_epoch=2)
        sb = slow.train_epoch(max_steps=6, evals_per_epoch=2)
        assert sa.mean_train_loss == sb.mean_train_loss
        assert [e.nll for e in sa.eval_points] == [
            e.nll for e in sb.eval_points
        ]
        _assert_identical(fast, slow)


def test_word_lm_float32_matches():
    """float32 weights meet the loss layer's float64 gradients: the
    fan-out must cast and accumulate exactly as ``accumulate_grad``."""
    def build(batched):
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 61, size=4000).astype(np.int64)
        cfg = TrainConfig(
            world_size=3, batch=BatchSpec(2, 4), base_lr=0.2,
            accumulation_steps=2, batched=batched,
        )
        return DistributedTrainer(
            lambda r, rank: WordLanguageModel(WORD_CFG, r, dtype=np.float32),
            lambda p, lr: SGD(p, lr),
            tokens, tokens[:600], cfg,
        )

    fast, slow = build(True), build(False)
    assert [fast.train_step() for _ in range(3)] == [
        slow.train_step() for _ in range(3)
    ]
    for (name, pa), (_, pb) in zip(
        fast.replicas[2].named_parameters(), slow.replicas[2].named_parameters()
    ):
        assert pa.data.dtype == np.float32
        assert np.array_equal(pa.data, pb.data), name


def test_batched_true_requires_support():
    with pytest.raises(ValueError, match="batched"):
        _make_trainer(True, 3, world_size=1)


def test_batched_false_disables():
    for model in MODELS:
        assert _make_trainer(False, 3, model).batched_executor is None


def test_single_replica_has_no_executor():
    for model in MODELS:
        t = _make_trainer(None, 3, model, world_size=1)
        assert t.batched_executor is None
        t.train_step()  # per-rank loop still works


def test_word_lm_auto_enables_flat_and_on_a_mesh():
    flat = _make_trainer(None, 3, "word")
    assert flat.batched_executor is not None
    mesh = _make_trainer(
        None, 3, "word", world_size=8, mesh="pipe=2,tensor=2,data=2"
    )
    assert mesh.batched_executor is not None
    assert len(mesh.batched_executor.replicas) == 2
    mesh.train_step()
    assert mesh.batched_executor._calls == 1


def test_executor_disables_on_divergence():
    """The storage tripwire: the fast path runs every rank on rank 0's
    weights, so one replica bound to another array — even an equal one —
    disables it on the next step, with the reason recorded."""
    for model in MODELS:
        t = _make_trainer(True, 5, model)
        ex = t.batched_executor
        t.train_step()
        assert ex.active and ex._calls == 1
        p = next(iter(t.replicas[1].parameters()))
        p.data = p.data.copy()
        t.train_step()  # falls back to the per-rank loop, permanently
        assert not ex.active and ex._calls == 1
        assert "diverged" in ex.fallback_reason
        assert ex.step(t.batcher.step_batches(0), t._sample_rngs) is None


def test_ragged_batches_fall_back():
    for model in MODELS:
        t = _make_trainer(True, 6, model)
        ex = t.batched_executor
        batches = t.batcher.step_batches(0)
        short = batches[0].__class__(
            inputs=batches[0].inputs[:, :-1], targets=batches[0].targets[:, :-1]
        )
        assert ex.step([short] + list(batches[1:]), t._sample_rngs) is None
        assert ex.active  # per-step fallback, not a permanent disable
        assert not t.sample_rngs_seen  # nothing was drawn, or even built


def test_inconsistent_flags_and_carry_fall_back():
    for model in MODELS:
        t = _make_trainer(True, 7, model)
        ex = t.batched_executor
        t.train_step()
        batches = t.batcher.step_batches(1)
        # One replica alone in eval mode.
        t.replicas[2].eval()
        assert ex.step(batches, t._sample_rngs) is None
        t.replicas[2].train()
        # One replica alone without a carried state.
        kept = t.replicas[1]._state
        t.replicas[1].reset_state()
        assert ex.step(batches, t._sample_rngs) is None
        t.replicas[1]._state = kept
        assert ex.step(batches, t._sample_rngs) is not None
        assert ex.active


def test_build_rejects_mixed_configs():
    other_cfg = CharLMConfig(
        vocab_size=61, embedding_dim=7, hidden_dim=13, depth=3, dropout=0.2
    )
    a = CharLanguageModel(MODEL_CFG, np.random.default_rng(0))
    b = CharLanguageModel(other_cfg, np.random.default_rng(0))
    w = WordLanguageModel(WORD_CFG, np.random.default_rng(0))
    assert build_batched_executor([a, b]) is None
    assert build_batched_executor([a, w]) is None
    assert build_batched_executor([a]) is None
    assert build_batched_executor([object(), object()]) is None

    class Tweaked(WordLanguageModel):  # may override step: not the exact type
        pass

    rng = np.random.default_rng
    assert build_batched_executor([Tweaked(WORD_CFG, rng(0)) for _ in "ab"]) is None
    stateful = WordLanguageModel(WORD_CFG, rng(0), stateful=True)
    assert build_batched_executor([w, stateful]) is None
    assert build_batched_executor([w, WordLanguageModel(WORD_CFG, rng(0))])
