"""Regression pin: batched rank execution is bit-identical to the loop.

The stacked fast path (:mod:`repro.nn.batched`) and the per-rank loop
are both checked against the one reference of :mod:`tests.conformance`,
across seeds.  Pairwise here: what the reference does not model (whole
epochs with evaluation, float32 weights) and the decide-once contract —
the executor is built or not with the trainer, and a world that leaves
its envelope mid-run raises a :class:`ReplicaMismatchError` naming the
replica instead of falling back.
"""

import numpy as np
import pytest

from repro.data.batching import BatchSpec
from repro.nn import ReplicaMismatchError
from repro.nn.batched import build_batched_executor
from repro.optim.sgd import SGD
from repro.train.char_lm import CharLanguageModel
from repro.train.config import TrainConfig
from repro.train.trainer import DistributedTrainer
from repro.train.word_lm import WordLanguageModel

from ..conformance.cells import carried, conform
from ..conformance.reference import CHAR_CFG, MODELS, OPTIMIZERS, WORD_CFG
from ..helpers import assert_same_state

MODELS_UNDER_TEST = ("char", "word")


def _make_trainer(seed, model="char", **overrides):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, WORD_CFG.vocab_size, size=6000).astype(np.int64)
    optimizer = "adam" if model == "char" else "sgd"
    make_optimizer, base_lr = OPTIMIZERS[optimizer]
    cfg = TrainConfig(
        world_size=overrides.pop("world_size", 4), batch=BatchSpec(3, 5),
        base_lr=base_lr, init_seed=seed, data_seed=seed + 1, **overrides,
    )
    return DistributedTrainer(
        MODELS[model], make_optimizer, tokens, tokens[:900], cfg
    )


def _conform_both_paths(**cell):
    """The cell on the stacked and the per-rank path; both trainers.

    Beyond the cell's class, the two paths issue the same collectives in
    the same order: tags, scopes, wire and logical bytes, simulated time.
    """
    fast, slow = [conform(batched=batched, **cell) for batched in (True, False)]
    assert fast.comm.ledger.events == slow.comm.ledger.events
    return fast, slow


@pytest.mark.parametrize(
    "model,seed",
    [(m, s) for m in MODELS_UNDER_TEST for s in range(5)],
    ids=[
        str(s) if m == "char" else f"{m}-{s}"
        for m in MODELS_UNDER_TEST for s in range(5)
    ],
)
def test_batched_matches_per_rank_loop(model, seed):
    """Five seeds, 8 steps of 2 micro-steps; odd word seeds add momentum."""
    optimizer = "adam" if model == "char" else ("sgd", "momentum")[seed % 2]
    _conform_both_paths(
        model=model, optimizer=optimizer, accumulation_steps=2,
        world_size=4, init_seed=seed, data_seed=seed + 1, steps=8,
    )


@pytest.mark.parametrize("seed", range(5))
def test_word_lm_shared_grads_and_row_replication(seed):
    """No accumulation, no scaler: nothing touches the synced grads (one
    object on every replica) between the sync and the one SGD step over
    the shared rows — 3 steps, tied embeddings on odd seeds."""
    _conform_both_paths(
        model=("word", "tied")[seed % 2], world_size=5, init_seed=seed,
        data_seed=seed + 1,
    )


def test_batched_matches_under_overlap_and_loss_scale():
    for model in MODELS_UNDER_TEST:
        fast, slow = _conform_both_paths(
            model=model, optimizer="adam" if model == "char" else "sgd",
            overlap=True, loss_scale=256.0, world_size=4, steps=5,
        )
        # The overlapped schedule's cost must agree too: the fast path
        # only changes host wall-clock, never simulated cost accounting.
        assert fast.comm.ledger.total_time_s == slow.comm.ledger.total_time_s


def test_batched_epoch_with_evals_matches():
    """Full epoch incl. eval (training-flag flips) stays bit-exact."""
    for model in MODELS_UNDER_TEST:
        fast = _make_trainer(21, model)
        slow = _make_trainer(21, model, batched=False)
        sa = fast.train_epoch(max_steps=6, evals_per_epoch=2)
        sb = slow.train_epoch(max_steps=6, evals_per_epoch=2)
        assert sa.mean_train_loss == sb.mean_train_loss
        assert [e.nll for e in sa.eval_points] == [
            e.nll for e in sb.eval_points
        ]
        for ra, rb in zip(fast.replicas, slow.replicas):
            assert_same_state(ra.state_dict(), rb.state_dict())
            assert ra.rng_state() == rb.rng_state()
            for a, b in zip(carried(ra), carried(rb), strict=True):
                np.testing.assert_array_equal(a, b, err_msg="carried state")
        assert_same_state(
            fast.optimizer.state_dict(), slow.optimizer.state_dict()
        )
        assert fast.comm.ledger.events == slow.comm.ledger.events


def test_word_lm_float32_matches():
    """float32 weights meet the loss layer's float64 gradients: the
    fan-out must cast and accumulate exactly as ``accumulate_grad``."""
    def build(batched):
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, WORD_CFG.vocab_size, size=4000).astype(np.int64)
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
    """``batched=True`` stacks only a world that qualifies; one replica
    runs the loop for the whole run, without an error (``conform``
    checks the executor is built exactly when ``d > 1``)."""
    for model in MODELS_UNDER_TEST:
        conform(model=model, batched=True, world_size=1)


def test_batched_false_disables():
    for model in MODELS_UNDER_TEST:
        conform(model=model, batched=False)


def test_batched_takes_two_values():
    with pytest.raises(ValueError, match="batched"):
        _make_trainer(3, batched=None)


def test_single_replica_has_no_executor():
    for model in MODELS_UNDER_TEST:
        conform(model=model, world_size=1)


def test_word_lm_auto_enables_flat_and_on_a_mesh():
    conform(world_size=4)
    mesh = conform(world_size=8, mesh="pipe=2,tensor=2,data=2", steps=1)
    assert len(mesh.batched_executor.replicas) == 2


def _refused(trainer, batches, replica):
    """The step raises naming ``replica`` and consumes nothing."""
    ex = trainer.batched_executor
    streams = [r.rng_state() for r in trainer.replicas]
    with pytest.raises(ReplicaMismatchError, match=f"replica {replica}"):
        ex.step(batches, trainer._sample_rngs)
    assert [r.rng_state() for r in trainer.replicas] == streams


def test_executor_raises_on_divergence():
    """The storage tripwire: the fast path runs every rank on rank 0's
    weights, so one replica bound to another array — even an equal one —
    is refused on the next step, naming the replica."""
    for model in MODELS_UNDER_TEST:
        t = _make_trainer(5, model)
        t.train_step()
        p = next(iter(t.replicas[1].parameters()))
        p.data = p.data.copy()
        _refused(t, t.batcher.step_batches(1), 1)
        with pytest.raises(ReplicaMismatchError):
            t.train_step()


def test_ragged_batches_raise():
    for model in MODELS_UNDER_TEST:
        t = _make_trainer(6, model)
        batches = list(t.batcher.step_batches(0))
        short = batches[2].__class__(
            inputs=batches[2].inputs[:, :-1], targets=batches[2].targets[:, :-1]
        )
        _refused(t, batches[:2] + [short] + batches[3:], 2)
        _refused(t, batches[:3], 3)  # a batch count that is not the world's


def test_inconsistent_flags_and_carry_raise():
    for model in MODELS_UNDER_TEST:
        t = _make_trainer(7, model)
        t.train_step()
        batches = t.batcher.step_batches(1)
        t.replicas[2].eval()  # one replica alone in eval mode
        _refused(t, batches, 2)
        t.replicas[2].train()
        kept = t.replicas[1]._state
        t.replicas[1].reset_state()  # one replica alone without a carry
        _refused(t, batches, 1)
        t.replicas[1]._state = kept
        assert len(t.batched_executor.step(batches, t._sample_rngs)) == 4


def test_build_rejects_mixed_configs():
    rng = np.random.default_rng
    other_cfg = CHAR_CFG.__class__(
        vocab_size=61, embedding_dim=7, hidden_dim=13, depth=3, dropout=0.2
    )
    a = CharLanguageModel(CHAR_CFG, rng(0))
    b = CharLanguageModel(other_cfg, rng(0))
    w = WordLanguageModel(WORD_CFG, rng(0))
    assert build_batched_executor([a, b]) is None
    assert build_batched_executor([a, w]) is None
    assert build_batched_executor([a]) is None
    assert build_batched_executor([object(), object()]) is None

    class Tweaked(WordLanguageModel):  # may override step: not the exact type
        pass

    assert build_batched_executor([Tweaked(WORD_CFG, rng(0)) for _ in "ab"]) is None
    stateful = WordLanguageModel(WORD_CFG, rng(0), stateful=True)
    assert build_batched_executor([w, stateful]) is None
    assert build_batched_executor([w, WordLanguageModel(WORD_CFG, rng(0))])
