"""Supervised, elastic fault-tolerant training: the recovery loop.

The paper's Hero run holds 192 GPUs for 34 hours — long enough that node
crashes, flapping links, and stragglers are routine, not exceptional.
This module adds the supervised run loop that real long-running jobs use
(TensorFlow's supervised sessions, elastic Horovod/TorchElastic
membership changes), built on the simulator's fault taxonomy
(:mod:`repro.cluster.failures`):

* **transient link faults** (:class:`~repro.cluster.failures.TransientLinkError`)
  rewind the interrupted step and retry it with capped exponential
  backoff.  Backoff time is charged to the per-rank
  :class:`~repro.cluster.timeline.Timeline` and the
  :class:`~repro.cluster.tracing.CostLedger` (scope ``recovery``) — never
  to wall clock; the simulator stays fast while the schedule reflects the
  lost time.  A rewind restores *all* step-consumed randomness (the data
  cursor, every rank's module RNG streams, carried BPTT state), so a
  retried step is bit-identical to a never-faulted one — the property the
  differential chaos tests pin.  Before each retry the
  :func:`~repro.analysis.sanitizer.assert_clean_retry_state` invariant
  verifies nothing from the aborted attempt survives (no gradient may be
  applied twice).
* **permanent rank loss** (:class:`~repro.cluster.failures.RankFailureError`)
  triggers graceful degradation: the world shrinks by one, a fresh
  :class:`~repro.cluster.communicator.Communicator` is built, the
  learning rate is rescaled by the global-batch ratio (the linear
  scaling rule — per-rank batch is preserved), and training resumes from
  the last checkpoint with bit-exact rank-stream resync via the v2
  checkpoint format.  A :class:`~repro.analysis.sanitizer.Sanitizer`
  on the old communicator moves onto the new one.  Transient faults
  that exhaust their retry budget escalate to eviction of the afflicted
  rank.

Checkpoints are written on a cadence chosen by the Young/Daly cost model
(:mod:`repro.perf.checkpoint_overhead`) from the configured MTBF,
checkpoint cost, and step time; each write also charges its cost to the
timeline.  Every recovery action is logged as a :class:`RecoveryEvent`
and the merged chrome trace (:meth:`ResilientRunner.chrome_trace`) shows
retries, backoff, and checkpoint writes across all communicator
generations.
"""

from __future__ import annotations

import copy
import pathlib
from collections.abc import Callable
from dataclasses import dataclass, replace

from ..analysis.sanitizer import Sanitizer, assert_clean_retry_state
from ..cluster.communicator import Communicator
from ..cluster.failures import RankFailureError, TransientLinkError
from ..perf.checkpoint_overhead import optimal_checkpoint_steps
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig
from .trainer import DistributedTrainer

__all__ = ["RecoveryEvent", "ResilientRunner"]


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervised-loop action, for post-mortem inspection.

    ``kind`` is one of ``checkpoint``, ``retry``, ``retries-exhausted``,
    ``rank-loss``, or ``resume``; ``global_step`` is the optimizer step
    at which it happened; ``detail`` is a human-readable description.
    """

    kind: str
    global_step: int
    detail: str


class ResilientRunner:
    """Supervised run loop wrapping :class:`DistributedTrainer`.

    Parameters
    ----------
    trainer_factory:
        ``f(config, comm) -> DistributedTrainer``.  Called once up front
        and again after every elastic world change; it must close over
        the token streams and model/optimizer factories.
    config:
        The initial run description.  After a rank loss the runner
        derives a shrunken copy (``world_size - 1``, same per-rank
        batch) and rebuilds the trainer from it.
    checkpoint_path:
        Where checkpoints are written (a single rolling ``.npz``).
    comm:
        Optional initial communicator — e.g. a
        :class:`~repro.cluster.failures.ChaosCommunicator` replaying a
        fault plan.  Defaults to ``comm_factory(config.world_size)``.
    comm_factory:
        ``f(world_size) -> Communicator`` used for post-shrink rebuilds
        (and the initial communicator when ``comm`` is omitted).
        Defaults to a plain memory-untracked :class:`Communicator`.
    max_retries:
        Consecutive transient retries of one step before the afflicted
        rank is evicted (escalation to the permanent path).
    base_backoff_s, backoff_factor, max_backoff_s:
        Capped exponential backoff charged per retry:
        ``min(base * factor**(attempt-1), max)`` simulated seconds.
    mtbf_s, checkpoint_cost_s, step_time_s:
        Inputs to the Young/Daly cadence model; used when
        ``checkpoint_every`` is not given explicitly.
    checkpoint_every:
        Checkpoint every N optimizer steps; overrides the cost model.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetrySession`.  The runner
        adopts the trainer into it (per-step records), re-tracks every
        rebuilt communicator as a new generation, and mirrors each
        :class:`RecoveryEvent` into the session's event stream.
    """

    def __init__(
        self,
        trainer_factory: Callable[[TrainConfig, Communicator], DistributedTrainer],
        config: TrainConfig,
        checkpoint_path: str | pathlib.Path,
        comm: Communicator | None = None,
        comm_factory: Callable[[int], Communicator] | None = None,
        max_retries: int = 4,
        base_backoff_s: float = 0.05,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 5.0,
        mtbf_s: float = 3600.0,
        checkpoint_cost_s: float = 1.0,
        step_time_s: float = 1.0,
        checkpoint_every: int | None = None,
        telemetry=None,
    ):
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if base_backoff_s <= 0 or max_backoff_s <= 0 or backoff_factor < 1:
            raise ValueError("backoff parameters must be positive (factor >= 1)")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.trainer_factory = trainer_factory
        self.config = config
        self.checkpoint_path = pathlib.Path(checkpoint_path)
        self.comm_factory = (
            comm_factory
            if comm_factory is not None
            else (lambda world: Communicator(world, track_memory=False))
        )
        self.max_retries = max_retries
        self.base_backoff_s = base_backoff_s
        self.backoff_factor = backoff_factor
        self.max_backoff_s = max_backoff_s
        self.checkpoint_cost_s = checkpoint_cost_s
        self.checkpoint_every = (
            checkpoint_every
            if checkpoint_every is not None
            else optimal_checkpoint_steps(step_time_s, checkpoint_cost_s, mtbf_s)
        )

        initial_comm = comm if comm is not None else self.comm_factory(config.world_size)
        self.trainer = trainer_factory(config, initial_comm)
        #: Timelines of every communicator generation (initial + rebuilds).
        self.timelines = [initial_comm.timeline]
        self.events: list[RecoveryEvent] = []
        self.losses: list[float] = []
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.adopt_trainer(self.trainer)
        self._lr_scale = 1.0
        self._attempts = 0
        self._initial_saved = False

    def _note(self, kind: str, step: int, detail: str) -> None:
        """Append a RecoveryEvent and mirror it into the telemetry session."""
        self.events.append(RecoveryEvent(kind, step, detail))
        if self.telemetry is not None:
            self.telemetry.record_event(kind, step, detail)

    # ------------------------------------------------------------------
    # the supervised loop
    # ------------------------------------------------------------------

    def run(self, total_steps: int) -> DistributedTrainer:
        """Drive training to ``total_steps`` optimizer steps, surviving faults.

        Returns the (possibly rebuilt) trainer.  On return all async
        work is drained.
        """
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if not self._initial_saved:
            self._save_checkpoint("initial")
            self._initial_saved = True
        while self.trainer.global_step < total_steps:
            snapshot = self._snapshot_step_state()
            self._apply_lr()
            try:
                loss = self.trainer.train_step()
            except TransientLinkError as fault:
                self._attempts += 1
                if self._attempts > self.max_retries:
                    self._note(
                        "retries-exhausted",
                        self.trainer.global_step,
                        f"rank {fault.rank} link still failing after "
                        f"{self.max_retries} retries; evicting the rank",
                    )
                    self._recover_from_rank_loss(fault.rank)
                    continue
                self._rewind(snapshot)
                backoff_s = self._charge_backoff(fault)
                self._note(
                    "retry",
                    self.trainer.global_step,
                    f"{fault.op} on rank {fault.rank}: attempt "
                    f"{self._attempts}/{self.max_retries}, backoff "
                    f"{backoff_s:.3f}s",
                )
                continue
            except RankFailureError as fault:
                self._note(
                    "rank-loss", self.trainer.global_step, str(fault)
                )
                self._recover_from_rank_loss(fault.rank)
                continue
            self._attempts = 0
            self.losses.append(loss)
            if (
                self.trainer.global_step % self.checkpoint_every == 0
                and self.trainer.global_step < total_steps
            ):
                self._save_checkpoint(
                    f"periodic (every {self.checkpoint_every} steps)"
                )
        self.trainer.comm.wait_all()
        self._save_checkpoint("final")
        return self.trainer

    # ------------------------------------------------------------------
    # transient-fault machinery
    # ------------------------------------------------------------------

    def _snapshot_step_state(self) -> dict:
        """Capture everything a step consumes, for a bit-exact rewind.

        The optimizer and parameters are untouched until *after* the
        gradient sync (where faults fire), so only the randomness and
        cursor state need saving: the data cursor (which also keys the
        per-step sampled-softmax generators), every rank's stateful
        module RNG streams, the stacked carried BPTT state, and the
        loss-scaler counters.
        """
        t = self.trainer
        snap = {
            "data_step": t.data_step,
            "skipped_steps": t.skipped_steps,
            "rng": t.rank_rng_state(),
            "carried": copy.deepcopy(t.batched_executor.carry),
            "scaler_scale": None,
            "scaler_clean": None,
        }
        if t.scaler is not None:
            snap["scaler_scale"] = t.scaler.scale
            snap["scaler_clean"] = getattr(t.scaler, "_clean_steps", None)
        return snap

    def _rewind(self, snap: dict) -> None:
        """Undo an aborted step so its retry replays from scratch.

        Drains in-flight async work, clears every residual gradient,
        restores the snapshot, then checks the no-double-apply invariant
        — a retry may only proceed from a provably clean slate.
        """
        t = self.trainer
        t.comm.wait_all()
        t.model.zero_grad()
        t.data_step = snap["data_step"]
        t.skipped_steps = snap["skipped_steps"]
        t.set_rank_rng_state(snap["rng"])
        t.batched_executor.carry = copy.deepcopy(snap["carried"])
        if t.scaler is not None:
            t.scaler._scale = snap["scaler_scale"]
            if snap["scaler_clean"] is not None:
                t.scaler._clean_steps = snap["scaler_clean"]
        assert_clean_retry_state([t.model], t.comm)

    def _charge_backoff(self, fault: TransientLinkError) -> float:
        """Charge this attempt's backoff to every rank's compute stream.

        Returns the simulated seconds charged.  Every rank waits (the
        collective is synchronous — nobody proceeds until the retry), so
        the backoff lands on every compute stream as one
        ``retry-backoff:<op>`` event; no collective is recorded.
        """
        backoff_s = min(
            self.base_backoff_s * self.backoff_factor ** (self._attempts - 1),
            self.max_backoff_s,
        )
        self.trainer.comm.timeline.record_compute_all(
            backoff_s, name=f"retry-backoff:{fault.op}"
        )
        return backoff_s

    # ------------------------------------------------------------------
    # permanent-fault machinery (elastic shrink)
    # ------------------------------------------------------------------

    def _recover_from_rank_loss(self, failed_rank: int) -> None:
        """Shrink the world by one and resume from the last checkpoint.

        Per-rank batch is preserved (the global batch shrinks with the
        world), so the learning rate is rescaled by the global-batch
        ratio — the linear scaling rule.  The rebuilt trainer loads the
        checkpoint elastically: surviving ranks re-index densely and
        adopt the saved RNG streams of their new index.

        On a hybrid mesh, a single lost rank takes its whole
        ``pipe x tensor`` model-shard group with it (the shards are not
        replicated within a data group), so the shrink collapses the
        **data axis only**: ``(p, t, d) -> (p, t, d-1)``, removing
        ``p*t`` ranks.  A shrink that would have to break the tensor or
        pipe factorization (``d == 1``) is rejected with an error
        instead of silently re-cutting model shards.
        """
        old_config = self.trainer.config
        if not 0 <= failed_rank < old_config.world_size:
            raise ValueError(
                f"failed_rank {failed_rank} out of range for world "
                f"{old_config.world_size}"
            )
        shape = old_config.mesh_shape
        if shape is not None:
            p, t, d = shape
            if d <= 1:
                raise ValueError(
                    f"cannot recover from rank loss on mesh (pipe={p}, "
                    f"tensor={t}, data={d}): the world shrink may only "
                    f"collapse the data axis, and data=1 leaves nothing "
                    f"to collapse — breaking the tensor/pipe "
                    f"factorization would re-cut model shards; restore "
                    f"from the checkpoint on replacement hardware instead"
                )
            new_world = p * t * (d - 1)
            new_mesh = f"pipe={p},tensor={t},data={d - 1}"
        else:
            new_world = old_config.world_size - 1
            new_mesh = old_config.mesh
        if new_world < 1:
            raise RankFailureError(failed_rank, "recovery", -1)
        old_comm = self.trainer.comm
        old_comm.wait_all()
        self._lr_scale *= new_world / old_config.world_size
        new_config = replace(old_config, world_size=new_world, mesh=new_mesh)
        comm = self.comm_factory(new_world)
        # The run's sanitizer follows it onto the new generation, before
        # the trainer is built so the trainer still sanitizes its codecs.
        for hook in list(old_comm.hooks):
            if isinstance(hook, Sanitizer):
                hook.attach(comm)
        self.timelines.append(comm.timeline)
        trainer = self.trainer_factory(new_config, comm)
        load_checkpoint(self.checkpoint_path, trainer, elastic=True)
        self.trainer = trainer
        self.config = new_config
        self._attempts = 0
        if self.telemetry is not None:
            self.telemetry.adopt_trainer(trainer)
        self._note(
            "resume",
            trainer.global_step,
            f"world {old_config.world_size} -> {new_world} (rank "
            f"{failed_rank} lost), lr scale {self._lr_scale:.4f}, "
            f"resumed from step {trainer.global_step}",
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _apply_lr(self) -> None:
        """Set this step's learning rate on the optimizer.

        The base schedule comes from the (possibly rebuilt) trainer —
        whose ``ln(nodes)`` factor tracks the current world — times the
        cumulative elastic rescale.
        """
        t = self.trainer
        lr = t.schedule.lr_at_epoch(t.epochs_done) * self._lr_scale
        t.optimizer.lr = lr

    def _save_checkpoint(self, detail: str) -> None:
        """Write the rolling checkpoint and charge its cost to the timeline."""
        t = self.trainer
        save_checkpoint(self.checkpoint_path, t)
        t.comm.timeline.record_compute_all(
            self.checkpoint_cost_s, name="checkpoint"
        )
        self._note("checkpoint", t.global_step, detail)

    @property
    def lr_scale(self) -> float:
        """Cumulative elastic learning-rate rescale (1.0 before any loss)."""
        return self._lr_scale

    def total_simulated_time(self) -> float:
        """Summed makespan across every communicator generation."""
        return sum(tl.makespan for tl in self.timelines)

    def generation_parts(self) -> list:
        """Span data of every generation, for the merged trace exporter."""
        from ..telemetry.spans import GenerationPart

        return [
            GenerationPart.from_run(timeline, label=f"gen{g}")
            for g, timeline in enumerate(self.timelines)
        ]

    def chrome_trace(self) -> list[dict]:
        """Merged chrome trace over all communicator generations.

        Uses the :mod:`repro.telemetry.spans` exporter: generation ``g``
        occupies its own pid block (one pid per rank, tids for
        compute/comm) shifted past all earlier generations in
        time, and every event is annotated with its ``generation``
        (0 = the initial communicator) so retries, backoff, checkpoint
        writes, and the post-shrink schedule are all visible in one
        view.
        """
        from ..telemetry.spans import merged_trace

        return merged_trace(self.generation_parts())
