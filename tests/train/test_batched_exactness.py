"""Regression pin: the rank execution's stack width never changes bits.

One program runs every data rank (:mod:`repro.nn.batched`): all rank
rows in one call (``batched=True``) or one row per call
(``batched=False``).  Both are checked against the one reference of
:mod:`tests.conformance`, across seeds, and against each other's
ledgers.  Pairwise here: what the reference does not model (whole
epochs with evaluation, float32 weights) and the executor itself —
every rank row equal bit for bit at widths ``R`` and 1.
"""

import numpy as np
import pytest

from repro.data.batching import Batch, BatchSpec
from repro.nn import BatchedExecutor
from repro.nn.parameter import SparseGrad
from repro.optim.sgd import SGD
from repro.train.config import TrainConfig
from repro.train.trainer import DistributedTrainer
from repro.train.word_lm import WordLanguageModel

from ..conformance.cells import conform
from ..conformance.reference import MODELS, OPTIMIZERS, WORD_CFG, rank_carry
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
    """The cell at both stack widths; both trainers.

    Beyond the cell's class, the two widths record the same collectives
    in the same order: tags, scopes, wire and logical bytes, simulated
    time.
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
        assert_same_state(fast.model.state_dict(), slow.model.state_dict())
        assert fast.rank_rng_state() == slow.rank_rng_state()
        for rank in range(fast.data_parallel):
            for a, b in zip(
                rank_carry(fast.batched_executor, rank),
                rank_carry(slow.batched_executor, rank),
                strict=True,
            ):
                np.testing.assert_array_equal(a, b, err_msg="carried state")
        assert_same_state(
            fast.optimizer.state_dict(), slow.optimizer.state_dict()
        )
        assert fast.comm.ledger.events == slow.comm.ledger.events


def test_word_lm_float32_matches():
    """float32 weights meet the loss layer's float64 gradients: the rank
    rows must cast and accumulate exactly as ``accumulate_grad``, at
    either width."""
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
        fast.model.named_parameters(), slow.model.named_parameters()
    ):
        assert pa.data.dtype == np.float32
        assert np.array_equal(pa.data, pb.data), name


def test_batched_true_requires_support():
    """``batched=True`` on a one-rank world is one row in one call, for
    either model (``conform`` checks the width)."""
    for model in MODELS_UNDER_TEST:
        conform(model=model, batched=True, world_size=1)


def test_batched_false_disables():
    for model in MODELS_UNDER_TEST:
        conform(model=model, batched=False)


def test_batched_takes_two_values():
    with pytest.raises(ValueError, match="batched"):
        _make_trainer(3, batched=None)


def test_single_rank_runs_one_row():
    for model in MODELS_UNDER_TEST:
        conform(model=model, world_size=1)


def test_word_lm_auto_enables_flat_and_on_a_mesh():
    conform(world_size=4)
    mesh = conform(world_size=8, mesh="pipe=2,tensor=2,data=2", steps=1)
    assert mesh.batched_executor.width == 2


def test_ragged_batches_raise():
    """A ragged world cannot stack: refused before any stream, carry or
    gradient state is consumed."""
    for model in MODELS_UNDER_TEST:
        t = _make_trainer(6, model)
        t.train_step()
        batches = list(t.batcher.step_batches(1))
        batches[2] = Batch(
            inputs=batches[2].inputs[:, :-1], targets=batches[2].targets[:, :-1]
        )
        streams, carry = t.rank_rng_state(), t.batched_executor.carry
        with pytest.raises(ValueError):
            t.batched_executor.step(batches, t._sample_rngs)
        assert t.rank_rng_state() == streams
        assert t.batched_executor.carry is carry
        assert all(not p.stacked_grads for p in t.model.parameters())


def _rank_rows(model):
    """Every parameter's rank rows as bytes, by name."""
    out = {}
    for name, p in model.named_parameters():
        rows = []
        for g in p.stacked_grads:
            if isinstance(g, SparseGrad):
                rows.append((g.indices.tobytes(), g.values.tobytes()))
            else:
                rows.append((g.dtype.str, g.tobytes()))
        out[name] = rows
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", ["word", "tied", "char"])
def test_row_width_is_bit_equal_per_row(name, dtype):
    """Width ``R`` against width 1, three micro-steps of one stateful
    model: losses, rank rows (accumulated dense blocks in the weights'
    dtype, token stacks in arrival order), stream draws and the carry."""
    R = 5
    rng = np.random.default_rng(11)
    tokens = rng.integers(0, WORD_CFG.vocab_size, size=(3, R, 2, 2, 6))
    runs = []
    for width in (R, 1):
        builds = [
            MODELS[name](np.random.default_rng(0), rank) for rank in range(R)
        ]
        model = builds[0]
        if dtype is np.float32:
            for p in model.parameters():
                p.data = p.data.astype(np.float32)
        own = None if model.step_rng is None else [b.step_rng for b in builds]
        ex = BatchedExecutor(model, own, width)
        losses = []
        for step, (inputs, targets) in enumerate(tokens.swapaxes(1, 2)):
            batches = [
                Batch(inputs[r], targets[r]) for r in range(R)
            ]
            losses.append(ex.step(
                batches,
                lambda step=step: [
                    np.random.default_rng([step, r]) for r in range(R)
                ],
                loss_scale=8.0,
            ))
        runs.append((
            losses,
            _rank_rows(model),
            [rank_carry(ex, r) for r in range(R)],
            None if own is None else [g.bit_generator.state for g in own],
        ))
    (la, ra, ca, sa), (lb, rb, cb, sb) = runs
    assert la == lb
    assert ra == rb
    assert sa == sb
    for a, b in zip(ca, cb, strict=True):
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()
