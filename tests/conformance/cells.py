"""One cell of the conformance lattice: build it, run it, check it.

A cell sets every factor (:data:`FACTORS`), plus ``TrainConfig``
overrides (world size, seeds) for the named cells other files keep.
:func:`conform` trains it and checks it against the one reference over
its ``d`` data-parallel ranks (flat, ``gpus_per_node=d``), by class:

* **exact** (no ``fp16`` / ``auto`` in the wire spec): losses,
  parameters, optimizer state, loss scale, and every data rank's
  per-module RNG state and carried BPTT state bit-equal;
* **ledger** (also blocking, codec-free, unfused, fault-free, and flat
  or the trivial mesh): additionally the collective list
  ``(op, tag, scope, world, wire bytes, logical bytes, seconds)``
  equals the reference's;
* **fp16**: losses within rtol 1e-4, loss scale and every rank's RNG
  state equal.  A step whose FP16 wire overflowed is
  skipped and backs the scale off; the reference skips the same steps,
  so any other step the cell skips, or any scale it fails to halve,
  still shows.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import Sanitizer
from repro.cluster import ChaosCommunicator, FaultEvent, FaultKind, FaultPlan
from repro.core.seeding import SeedStrategy
from repro.telemetry import TelemetrySession
from repro.train import DistributedTrainer, ResilientRunner, TrainConfig

from ..helpers import assert_same_state
from .reference import (
    BATCH,
    CORPUS,
    MODELS,
    OPTIMIZERS,
    carried,
    rank_carry,
    reference_run,
)

WORLD = 8
STEPS = 3
HYBRID = "pipe=2,tensor=2,data=G/4"

#: Every switch and the values the lattice draws; the first value of
#: each is a named cell's default.
FACTORS = {
    "model": ("word", "tied", "char"),
    "optimizer": ("sgd", "momentum", "adam"),
    "batched": (True, False),
    "mesh": (None, "data=G", HYBRID),
    "wire_codec": (None, "delta", "entropy", "auto", "fp16+entropy", "fp16+auto"),
    "wire_chunk_bytes": (None, 64),
    "overlap": (False, True),
    "fused_reduce": (False, True),
    "use_unique": (True, False),
    "seed_strategy": (SeedStrategy.PER_RANK, SeedStrategy.ZIPF_FREQ),
    "accumulation_steps": (1, 2),
    "loss_scale": (None, 256.0, "dynamic"),
    "observer": ("plain", "sanitize", "telemetry"),
    "faults": ("none", "transient"),
}
#: Factors that are not ``TrainConfig`` fields.
_RUN_FACTORS = ("model", "optimizer", "observer", "faults")
#: What the reference leaves out: every scheduling or transport switch.
_SWITCHES_OFF = dict(
    mesh=None, wire_codec=None, wire_chunk_bytes=None, overlap=False,
    fused_reduce=False, batched=False, compute_seconds_per_step=None,
)

#: The lattice's fault plan: two transient link faults, early enough
#: that every cell's first steps reach them.
TRANSIENT_PLAN = FaultPlan([
    FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=1, rank=1, retries=1),
    FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=4, rank=0, retries=2),
])


def lossy(cell: dict) -> bool:
    """Whether the cell's wire may round values (the fp16 class)."""
    spec = cell["wire_codec"] or ""
    return "fp16" in spec or "auto" in spec


def in_ledger_class(cell: dict) -> bool:
    return (
        cell["wire_codec"] in (None, "none")
        and not cell["overlap"]
        and not cell["fused_reduce"]
        and cell["faults"] == "none"
        and cell["mesh"] in (None, "data=G")
    )


def ledger(comm) -> list:
    """(op, tag, scope, world, wire bytes, logical bytes, s) per record."""
    return [e[:5] + (e.logical_bytes_per_rank, e.time_s) for e in comm.ledger.events]


def _run(cell: dict, cfg: TrainConfig, steps: int, plan: FaultPlan | None):
    """Train one cell; ``(losses, trainer, skipped steps)`` after its
    observer's checks (steps counted from 0)."""
    comm = ChaosCommunicator(cfg.world_size, plan=plan, track_memory=False)
    sanitizer = Sanitizer(comm) if cell["observer"] == "sanitize" else None
    session = TelemetrySession() if cell["observer"] == "telemetry" else None
    skipped = {}

    def factory(cfg, comm):
        trainer = DistributedTrainer(
            MODELS[cell["model"]], OPTIMIZERS[cell["optimizer"]][0],
            CORPUS.train, CORPUS.valid, cfg, comm=comm,
        )
        step = trainer.train_step

        def train_step():
            before = trainer.skipped_steps
            loss = step()
            skipped[trainer.global_step - 1] = trainer.skipped_steps > before
            return loss

        trainer.train_step = train_step
        return trainer

    if plan is None:
        trainer = factory(cfg, comm)
        if session is not None:
            session.adopt_trainer(trainer)
        losses = [trainer.train_step() for _ in range(steps)]
    else:
        with tempfile.TemporaryDirectory() as tmp:
            # A retry budget above any transient plan's: none escalates.
            runner = ResilientRunner(
                factory, cfg, Path(tmp) / "ckpt.npz", comm=comm,
                checkpoint_every=steps, max_retries=8, telemetry=session,
            )
            trainer = runner.run(steps)
        losses = runner.losses
        assert trainer.comm is comm, "a transient fault rebuilt the world"
        assert comm.replay.injected, "the plan injected nothing"
    if sanitizer is not None:
        sanitizer.finish()
        assert sanitizer.collectives_checked > 0
        if plan is None:
            assert sanitizer.collectives_checked == len(comm.ledger.events)
        if trainer.wire is not None:  # its lossless codecs check themselves
            index = trainer.wire.index_codec
            assert index is None or type(index).__name__ == "SanitizedWireCodec"
    if session is not None:
        summary = session.finalize()
        assert summary["steps"] == steps
        wire = summary["totals"]["wire_bytes_per_rank"]
        assert wire == comm.ledger.total_wire_bytes_per_rank
    return losses, trainer, frozenset(s for s, hit in skipped.items() if hit)


def conform(
    steps: int = STEPS, plan: FaultPlan | None = None, **settings
) -> DistributedTrainer:
    """Run the cell ``settings`` describes and check it against the reference.

    ``settings`` holds factor values (the rest take :data:`FACTORS`'
    first values) and ``TrainConfig`` overrides.  ``plan`` replaces the
    lattice's transient plan (and implies ``faults="transient"``).
    Returns the trained trainer for further checks.
    """
    cell = {name: values[0] for name, values in FACTORS.items()}
    cell.update((k, v) for k, v in settings.items() if k in FACTORS)
    if plan is not None:
        cell["faults"] = "transient"
    elif cell["faults"] == "transient":
        plan = TRANSIENT_PLAN
    fields = dict(
        world_size=WORLD, batch=BATCH, compute_seconds_per_step=1e-3,
        base_lr=OPTIMIZERS[cell["optimizer"]][1],
    )
    fields.update((k, v) for k, v in cell.items() if k not in _RUN_FACTORS)
    fields.update((k, v) for k, v in settings.items() if k not in FACTORS)
    cfg = TrainConfig(**fields)
    losses, trainer, skipped = _run(cell, cfg, steps, plan)

    d = trainer.data_parallel
    ref_cfg = dataclasses.replace(
        cfg, world_size=d, gpus_per_node=d, **_SWITCHES_OFF
    )
    # The LR rule must see the same node count on both sides.
    assert ref_cfg.num_nodes == cfg.num_nodes
    # Only an FP16 wire may overflow where the reference does not.
    want_losses, want = reference_run(
        cell["model"], cell["optimizer"], ref_cfg, steps,
        skipped if lossy(cell) else frozenset(),
        None if trainer.wire is None else trainer.wire.fp16_scale,
    )
    if lossy(cell) and cell["loss_scale"] == "dynamic":
        # The scale starts at 1024 / F, so an FP16 cell trains.
        assert len(skipped) < steps, "every step overflowed"

    executor = trainer.batched_executor
    assert executor.width == (d if cell["batched"] else 1)
    assert trainer.data_step == want.data_step
    assert trainer.replicas == [trainer.model]
    assert len(trainer.rank_streams) == d
    assert trainer.rank_rng_state() == [m.rng_state() for m in want.models]
    if want.scaler is not None:
        assert trainer.scaler.scale == want.scaler.scale
    if lossy(cell):
        np.testing.assert_allclose(losses, want_losses, rtol=1e-4)
        return trainer
    assert losses == want_losses
    state = trainer.model.state_dict()
    for rank, model in enumerate(want.models):
        assert_same_state(state, model.state_dict(), "parameters")
        for got, ref in zip(
            rank_carry(executor, rank), carried(want.carry[rank]), strict=True
        ):
            np.testing.assert_array_equal(got, ref, err_msg="carried state")
    want_opt = want.optimizers[0].state_dict()
    assert_same_state(trainer.optimizer.state_dict(), want_opt, "optimizer")
    if in_ledger_class(cell):
        assert ledger(trainer.comm) == ledger(want.comm)
    return trainer
