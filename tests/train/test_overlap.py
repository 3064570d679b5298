"""Recorded-baseline pin and scheduling tests for the one sync schedule.

The contract: ``overlap=True`` records backward compute slice by slice
and issues each collective once its inputs exist — index gathers before
the first slice, each reduce pack after its members' slices — which
changes *when* collectives are issued, never *what* they compute.  That
this is bit-equal to the unsliced step is checked, with every other
switch, by the conformance lattice; here the unsliced path is pinned to
its recorded numbers, a step without slices is shown to be that step
event for event, and the timeline is shown to shrink because comm hides
behind backward compute.
"""

import pytest

from repro.cluster import COMPUTE_STREAM, CollectiveHook
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
        **dict(
            world_size=2, batch=BatchSpec(2, 10), base_lr=0.3, use_unique=True
        )
        | cfg_overrides
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(MODEL_CFG, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train,
        CORPUS.valid,
        cfg,
    )


def issue_log(trainer):
    """``(op, tag)`` per collective issued and ``("bwd", name)`` per
    backward slice recorded, in order, from now on."""
    log = []

    class Log(CollectiveHook):
        def pre_issue(self, comm, op, tag, arrays):
            log.append((op, tag))

    trainer.comm.hooks.append(Log())
    record = trainer.synchronizer.on_issue
    trainer.synchronizer.on_issue = lambda name: (
        log.append(("bwd", name)), record(name)
    )
    return log


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
        backward hides comm the unsliced step exposes, moving the same
        bytes."""
        blocking = make_trainer(compute_seconds_per_step=1e-3)
        overlapped = make_trainer(overlap=True, compute_seconds_per_step=1e-3)
        run_five_steps(blocking)
        run_five_steps(overlapped)
        assert (
            overlapped.comm.timeline.makespan
            < blocking.comm.timeline.makespan
        )
        assert (
            overlapped.comm.ledger.total_wire_bytes_per_rank
            == blocking.comm.ledger.total_wire_bytes_per_rank
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
        """Sliced or not, a step bills every allreduce to the same scope
        and moves the same bytes in as many collectives; it sends its two
        index gathers as one allgather, billed to both members' scope."""
        blocking = make_trainer()
        overlapped = make_trainer(overlap=True, compute_seconds_per_step=1e-3)
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
        )

    @pytest.mark.parametrize(
        "cfg",
        [{}, dict(world_size=4, mesh="pipe=2,data=2", compute_seconds_per_step=1e-3)],
        ids=["no-compute", "pipe=2"],
    )
    def test_without_slices_the_step_is_the_blocking_step(self, cfg):
        """No compute charged, or a 1F1B pipeline that has placed it all:
        nothing is sliced, and ``overlap`` leaves the ledger event for
        event."""
        blocking = make_trainer(**cfg)
        overlapped = make_trainer(overlap=True, **cfg)
        run_five_steps(blocking)
        run_five_steps(overlapped)
        assert overlapped.synchronizer.on_issue is None
        assert overlapped.comm.ledger.events == blocking.comm.ledger.events

    def test_each_collective_goes_once_its_inputs_exist(self):
        """Index gathers need only ids: they go before the first
        backward slice.  A reduce pack needs its members' gradients: it
        goes after each member's slice."""
        trainer = make_trainer(overlap=True, compute_seconds_per_step=1e-3)
        log = issue_log(trainer)
        trainer.train_step()
        sliced = {name: i for i, (op, name) in enumerate(log) if op == "bwd"}
        assert len(sliced) == 7  # each synced parameter, once
        gathers = [i for i, (op, _) in enumerate(log) if op == "allgather"]
        assert gathers and max(gathers) < min(sliced.values())
        packs = [(i, tag) for i, (op, tag) in enumerate(log) if op == "allreduce"]
        assert packs
        for i, tag in packs:
            members = [m.rpartition(":")[0] or m for m in tag.split("+")]
            assert all(sliced[m] < i for m in members), tag

    def test_compute_seconds_validation(self):
        with pytest.raises(ValueError):
            make_trainer(compute_seconds_per_step=-1.0)
        with pytest.raises(ValueError):
            make_trainer(compute_seconds_per_step=0.0)
