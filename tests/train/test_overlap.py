"""Recorded-baseline pin and scheduling tests for overlapped training.

The contract: ``overlap=True`` changes *when* collectives are issued
(layer-by-layer during backward, drained afterwards), never *what* they
compute.  That overlap is bit-equal to blocking is checked, with every
other switch, by the composition table in ``test_sync_composition.py``;
here the blocking path is pinned to its recorded numbers and the
timeline is shown to shrink because comm hides behind backward compute.
"""

import pytest

from repro.cluster import COMPUTE_STREAM
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

VOCAB = 64
MODEL_CFG = WordLMConfig(
    vocab_size=VOCAB,
    embedding_dim=8,
    hidden_dim=12,
    projection_dim=8,
    num_samples=16,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 4000, seed=0)

# Recorded from the pre-refactor blocking implementation.  Any drift
# here means the async engine changed numerics, not just scheduling.
BASELINE_LOSSES = [
    3.983903574988421,
    4.137694160886854,
    3.8124471924432983,
    4.076225002854148,
    3.9420808504201634,
]
BASELINE_WIRE_BYTES = 59712
# 4 per step: the two index gathers ride one allgather, and the five
# dense tensors are one fused run.
BASELINE_EVENTS = 20
BASELINE_EVAL = 3.7978426081997867


def make_trainer(**cfg_overrides):
    cfg = TrainConfig(
        world_size=2,
        batch=BatchSpec(2, 10),
        base_lr=0.3,
        use_unique=True,
        **cfg_overrides,
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(MODEL_CFG, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train,
        CORPUS.valid,
        cfg,
    )


def run_five_steps(trainer):
    losses = [trainer.train_step() for _ in range(5)]
    return losses, trainer.evaluate()


class TestBitExactness:
    def test_blocking_path_matches_recorded_baseline(self):
        """Regression pin: the refactored blocking path (issue+wait)
        reproduces the pre-refactor run exactly."""
        trainer = make_trainer()
        losses, eval_nll = run_five_steps(trainer)
        assert losses == BASELINE_LOSSES
        assert trainer.comm.ledger.total_wire_bytes_per_rank == BASELINE_WIRE_BYTES
        assert len(trainer.comm.ledger.events) == BASELINE_EVENTS
        assert eval_nll == BASELINE_EVAL


class TestOverlapTimeline:
    def test_overlap_shrinks_makespan(self):
        """With recorded per-step compute, issuing collectives during
        backward hides comm the blocking schedule exposes."""
        blocking = make_trainer(compute_seconds_per_step=1e-3)
        overlapped = make_trainer(overlap=True, compute_seconds_per_step=1e-3)
        run_five_steps(blocking)
        run_five_steps(overlapped)
        assert (
            overlapped.comm.timeline.makespan
            < blocking.comm.timeline.makespan
        )

    def test_blocking_exposes_all_comm(self):
        """The blocking schedule records compute before issuing, so every
        comm second is exposed; the overlapped schedule hides some."""
        blocking = make_trainer(compute_seconds_per_step=1e-3)
        overlapped = make_trainer(overlap=True, compute_seconds_per_step=1e-3)
        run_five_steps(blocking)
        run_five_steps(overlapped)

        def exposed(tl):  # comm seconds past the busiest compute stream
            busiest = max(
                tl.busy_time(r, COMPUTE_STREAM) for r in range(tl.world_size)
            )
            return tl.makespan - busiest

        assert exposed(overlapped.comm.timeline) < exposed(
            blocking.comm.timeline
        )

    def test_ledger_scope_attribution_unchanged(self):
        """Both schedules bill every allreduce to the same scope and move
        the same bytes; blocking sends a step's two index gathers as one
        allgather, billed to both members' scope."""
        blocking = make_trainer()
        overlapped = make_trainer(overlap=True)
        run_five_steps(blocking)
        run_five_steps(overlapped)

        def by_scope(trainer, op):
            out = {}
            for e in trainer.comm.ledger.events:
                if e.op == op:
                    out[e.scope] = out.get(e.scope, 0) + e.wire_bytes_per_rank
            return out

        assert by_scope(overlapped, "allreduce") == by_scope(
            blocking, "allreduce"
        )
        gathered = by_scope(blocking, "allgather")
        assert list(gathered) == ["sync/embedding.weight+loss_layer.weight"]
        assert sum(gathered.values()) == sum(
            by_scope(overlapped, "allgather").values()
        )
        assert len(overlapped.comm.ledger.events) == len(
            blocking.comm.ledger.events
        ) + 5

    def test_compute_seconds_validation(self):
        with pytest.raises(ValueError):
            make_trainer(compute_seconds_per_step=-1.0)
        with pytest.raises(ValueError):
            make_trainer(compute_seconds_per_step=0.0)
