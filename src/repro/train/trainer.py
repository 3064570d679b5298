"""SPMD data-parallel trainer over the simulated cluster.

Runs G simulated GPUs through synchronous data-parallel training exactly
as Section II-B describes: each rank computes forward/backward on its
own local batch, then all gradients are synchronized — dense ones by
ALLREDUCE, embedding ones by the configured exchange strategy — and each
rank applies the identical update locally.  Identical updates to
identical weights are one model: the trainer holds **one** model and
**one** optimizer, so host memory and optimizer time do not grow with
G.  What differs per rank is its *rank state* — its module RNG streams
(dropout), its row of the one stacked carried-BPTT state, its batch
shard — and its pre-sync gradients, a row of each parameter's rank rows.
One program executes every rank: :class:`~repro.nn.batched.
BatchedExecutor` runs the model over ``(R', B, T)`` rank rows.

Every accuracy number produced here is *real* (actual gradient descent
on actual Zipfian data); only memory/time accounting is simulated.

When the config sets ``compute_seconds_per_step``, each step also
records compute on the communicator's per-rank timeline, so simulated
iteration time reflects compute *and* communication.  With
``overlap=False`` the whole forward+backward is recorded before the
(blocking) sync — serial compute-then-comm.  With ``overlap=True`` the
trainer drives layer-by-layer backward-with-issue: forward (and the
non-overlappable head of backward) is recorded up front, then each
parameter's slice of backward compute is recorded immediately before
its collective is issued, so communication hides behind the rest of
backward exactly as DDP-style gradient hooks achieve on real hardware.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..analysis.sanitizer import Sanitizer
from ..cluster.communicator import Communicator
from ..cluster.pipeline import PipelineSchedule
from ..core.compression import FP16_MAX, CompressionOverflowError
from ..core.embedding_sync import GradientSynchronizer
from ..core.seeding import assign_seeds
from ..core.sparse_exchange import AllGatherExchange, UniqueExchange
from ..core.wire.policy import WirePolicy
from ..data.batching import Batch, ShardedBatcher, make_eval_batches
from ..nn.batched import BatchedExecutor
from ..nn.module import Module
from ..optim.loss_scaler import (
    DynamicLossScaler,
    StaticLossScaler,
    grads_are_finite,
)
from ..optim.lr_schedule import EpochDecaySchedule
from .config import TrainConfig
from .metrics import perplexity

__all__ = [
    "DistributedTrainer",
    "EpochStats",
    "EvalPoint",
    "assert_replicas_synchronized",
    "max_replica_divergence",
]

# Backward's share of one fwd+bwd pass: backward costs roughly twice
# forward (two matmuls per layer vs one), the split overlap schedules
# conventionally assume.
_BACKWARD_FRACTION = 2.0 / 3.0


def _array_divergence(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute difference of two arrays, compared by bit pattern.

    Zero means the same bits, NaNs included.  Where bits differ and the
    distance is undefined (a NaN facing a number) it is ``inf`` — never
    the ``0.0`` that ``max(0.0, nan)`` would report.
    """
    if a.dtype != b.dtype or a.shape != b.shape:
        return float("inf")
    bits = f"u{a.dtype.itemsize}"
    differ = a.view(bits) != b.view(bits)
    if not differ.any():
        return 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        worst = float(np.abs(a[differ] - b[differ]).max())
    # +0.0 against -0.0 is a bit difference at distance zero: still > 0.
    return max(worst, 5e-324) if worst == worst else float("inf")


def max_replica_divergence(replicas: list[Module]) -> float:
    """Largest absolute parameter difference between any replica and rank 0.

    Parameters bound to rank 0's own array are equal by identity and
    are not read; replica lists that do not share (the G unshared
    models a trainer stands for) are compared bit for bit (see
    :func:`_array_divergence`).  A trainer's ``replicas`` is its one
    model, synchronized by construction.
    """
    if len(replicas) < 2:
        return 0.0
    base = dict(replicas[0].named_parameters())
    worst = 0.0
    for other in replicas[1:]:
        for name, p in other.named_parameters():
            if p.data is not base[name].data:
                worst = max(worst, _array_divergence(p.data, base[name].data))
    return worst


def assert_replicas_synchronized(replicas: list[Module], atol: float = 0.0) -> None:
    """Raise if replicas have drifted apart — the core sync invariant."""
    worst = max_replica_divergence(replicas)
    if worst > atol:
        raise AssertionError(
            f"replicas diverged: max parameter delta {worst:.3e} > {atol:.3e}"
        )


@dataclass(frozen=True)
class EvalPoint:
    """One validation measurement along training."""

    epoch: float
    nll: float

    @property
    def perplexity(self) -> float:
        return perplexity(self.nll)


@dataclass
class EpochStats:
    """Aggregates of one training epoch."""

    epoch: int
    mean_train_loss: float
    lr: float
    eval_points: list[EvalPoint] = field(default_factory=list)
    unique_fractions: list[float] = field(default_factory=list)


class DistributedTrainer:
    """Drive G ranks through synchronous data-parallel training.

    The world is always a hybrid ``(pipe, tensor, data)`` mesh —
    ``config.mesh=None`` is the trivial ``(1, 1, G)`` one, i.e. flat
    data parallelism.  One rank state is kept per **data** coordinate,
    gradient sync runs on the data axis only (sharded across the
    pipe × tensor model ranks via :mod:`repro.core.mesh_exchange`), and
    — when compute accounting is on and ``pipe > 1`` — each step is
    placed as a 1F1B pipeline schedule with activation sends charged on
    the pipe axis.

    Parameters
    ----------
    model_factory:
        ``f(init_rng, rank) -> Module`` with an identically-seeded init
        generator; its rank-0 build is ``trainer.model``.  A model that
        owns module RNG streams (:meth:`~repro.nn.module.Module.rng_state`,
        such as the char LM's dropout, which may key off ``rank``) is
        built once per other data rank too, only to take that rank's
        streams; each such build's parameters must equal rank 0's bit
        for bit (``ValueError`` otherwise).  A model without streams is
        built once.
    optimizer_factory:
        ``f(params, lr) -> optimizer`` with a mutable ``lr`` attribute
        and a ``step()`` method that updates ``p.data`` **in place** and
        clears the gradients it consumed.  Called once, over the model's
        parameters: the one optimizer is ``trainer.optimizer``.
    train_tokens, valid_tokens:
        Token-id streams.
    config:
        Run description (world size, batch shape, techniques, seeds).
    comm:
        Optional pre-built communicator; by default one is created with
        memory tracking **off** (accuracy runs routinely simulate more
        ranks x batch than one host could track byte-for-byte).  Either
        way the trainer sets the configured mesh on it.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetrySession`; when set
        (here or later via ``session.adopt_trainer``), every optimizer
        step emits a structured record — loss, perplexity, step time,
        wire-byte delta, loss scale, skip flag — to the session.
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator, int], Module],
        optimizer_factory,
        train_tokens: np.ndarray,
        valid_tokens: np.ndarray,
        config: TrainConfig,
        comm: Communicator | None = None,
        telemetry=None,
    ):
        self.config = config
        self.comm = (
            comm
            if comm is not None
            else Communicator(config.world_size, track_memory=False)
        )
        if self.comm.world_size != config.world_size:
            raise ValueError("communicator world size != config world size")

        # The world is (pipe, tensor, data) and one rank state stands
        # for each *data* coordinate — the pipe × tensor shards of the
        # model live as gradient shards inside the sync, not as modules.
        self.mesh = self.comm.mesh = config.device_mesh
        self.data_parallel = self.mesh.axis_size("data")

        #: ``rank_streams[r]`` holds data rank ``r``'s module RNG streams
        #: under the model's module paths: the model itself for rank 0.
        self.model, self.rank_streams, step_rngs = self._build(model_factory)
        #: The world as a module list, for readers of a replica list:
        #: the one model.
        self.replicas = [self.model]
        wire = None
        if config.wire_codec is not None:
            wire = WirePolicy.from_spec(
                config.wire_codec, config.wire_chunk_bytes
            )
            if any(isinstance(h, Sanitizer) for h in self.comm.hooks):
                wire = wire.sanitized()  # a sanitized run checks its codecs too
            if wire.is_inert:
                wire = None  # "none": keep the pre-wire code paths
        self.wire = wire
        strategy = (
            UniqueExchange(wire=wire)
            if config.use_unique
            else AllGatherExchange(wire=wire)
        )
        # Backward slices are recorded per parameter only when the step's
        # compute is placed by the flat schedule (a 1F1B pipeline has
        # already placed all of it — see _record_step_compute).
        slice_backward = (
            config.overlap
            and config.compute_seconds_per_step is not None
            and self.mesh.axis_size("pipe") == 1
        )
        # Held weakly: a bound method would tie trainer and synchronizer
        # into a cycle, and a dropped trainer (a world's rank rows) would
        # wait for the cyclic collector instead of its last reference.
        hook = weakref.WeakMethod(self._record_backward_slice)
        self.synchronizer = GradientSynchronizer(
            self.comm,
            strategy=strategy,
            wire=wire,
            overlap=config.overlap,
            on_issue=(lambda name: hook()(name)) if slice_backward else None,
            fused_reduce=config.fused_reduce,
        )
        self._backward_slice_s = 0.0
        self.batcher = ShardedBatcher(
            train_tokens,
            config.batch,
            self.data_parallel,
            shuffle_seed=config.shuffle_seed,
        )
        self.eval_batches: list[Batch] = make_eval_batches(
            valid_tokens, config.batch, max_batches=8
        )
        self.schedule = EpochDecaySchedule.for_cluster(
            config.base_lr, config.num_nodes
        )
        self._params = list(self.model.parameters())
        self.optimizer = optimizer_factory(
            self._params, self.schedule.initial_lr
        )
        self.seed_assignment = assign_seeds(
            config.seed_strategy, self.data_parallel, base_seed=config.data_seed
        )
        # One program for every rank: all data ranks' rows in one call,
        # or one row per call (``batched=False``; the same bits).
        self.batched_executor = BatchedExecutor(
            self.model, step_rngs, self.data_parallel if config.batched else 1
        )
        self.scaler: StaticLossScaler | None
        if config.loss_scale is None:
            self.scaler = None
        elif config.loss_scale == "dynamic":
            wire_scale = self.wire.fp16_scale if self.wire is not None else None
            # An FP16 wire multiplies by its own F as well: start at
            # 1024 / F (rounded down to a power of two, at least 1), so
            # the scaled grads cross the wire no larger than at the
            # default 1024 without one, instead of skipping steps to
            # back off.
            self.scaler = DynamicLossScaler(
                1024.0
                if wire_scale is None
                else 2.0 ** max(0, int(np.floor(np.log2(1024.0 / wire_scale))))
            )
        else:
            self.scaler = StaticLossScaler(float(config.loss_scale))
        self.global_step = 0      # optimizer steps taken
        self.data_step = 0        # batcher windows consumed
        self.skipped_steps = 0    # overflow-skipped optimizer steps
        self.epochs_done = 0      # completed train_epoch calls
        self.history: list[EpochStats] = []
        self.telemetry = None     # set by TelemetrySession.adopt_trainer
        if telemetry is not None:
            telemetry.adopt_trainer(self)

    # ------------------------------------------------------------------

    def _build(self, model_factory):
        """``(model, rank streams, rank step streams or None)``.

        The model is the factory's rank-0 build, and rank 0's streams
        are its own.  A model that owns module RNG streams
        (:meth:`~repro.nn.module.Module.rng_state`) is built once per
        other data rank, checked bit-equal to rank 0 and dropped as soon
        as its stream modules are taken into a parameter-free shell
        under the same paths — host parameter memory is one model plus
        the one under construction, whatever the world size.
        """
        def build(rank: int) -> Module:
            return model_factory(
                np.random.default_rng(self.config.init_seed), rank
            )

        model = build(0)
        paths = list(model.rng_state())
        streams, step_rngs = [model], [model.step_rng]
        base = list(model.named_parameters())
        for rank in range(1, self.data_parallel):
            shell = Module()
            streams.append(shell)
            if not paths:
                continue
            other = build(rank)
            for (name, p), (base_name, shared) in zip(
                other.named_parameters(), base, strict=True
            ):
                if (
                    name != base_name
                    or _array_divergence(p.data, shared.data) != 0.0
                ):
                    raise ValueError(
                        f"model_factory built rank {rank} with a {name!r} "
                        f"that differs from rank 0's {base_name!r}: ranks "
                        "must start equal (key per-rank extras such as "
                        "dropout streams off ``rank``, never the initial "
                        "weights)"
                    )
            modules = dict(other.named_modules())
            for path in paths:
                shell.register_module(path, modules[path])
            step_rngs.append(other.step_rng)
        return model, streams, None if model.step_rng is None else step_rngs

    def rank_rng_state(self) -> list[dict]:
        """Every data rank's module-stream states, in rank order."""
        return [s.rng_state() for s in self.rank_streams]

    def set_rank_rng_state(self, states: list[dict]) -> None:
        """Restore streams captured by :meth:`rank_rng_state`."""
        for streams, saved in zip(self.rank_streams, states):
            streams.set_rng_state(saved)

    def evaluate(self) -> float:
        """Validation NLL (nats/token) of the (synchronized) model."""
        return self.model.eval_nll(self.eval_batches)

    def _record_backward_slice(self, name: str) -> None:
        """Timeline hook: one parameter's backward compute, every rank.

        Installed as the synchronizer's ``on_issue`` hook when overlap
        and compute accounting are both enabled, so each layer's
        gradient "costs" compute before the collective carrying it (its
        dense run, or its sparse exchange) is issued.
        """
        self.comm.timeline.record_compute_all(
            self._backward_slice_s, name=f"bwd:{name}"
        )

    def _record_step_compute(self) -> None:
        """Place this step's compute on the timeline (pre-sync part).

        Blocking schedule: the whole forward+backward lands before the
        sync.  Overlapped schedule: forward lands here; backward is
        divided evenly among the parameters that will sync and recorded
        slice-by-slice by :meth:`_record_backward_slice` as their
        collectives are issued.  On a mesh with ``pipe > 1`` the step is
        instead placed as a GPipe-style 1F1B
        :class:`~repro.cluster.pipeline.PipelineSchedule`: each stage works
        ``1/p`` of the model per micro-batch, accumulation steps are the
        micro-batches, and activation sends are charged on the pipe
        axis.  That schedule has already placed all of the step's
        compute, so with ``overlap=True`` no per-parameter backward
        slices are recorded — overlap then only changes the issue order.
        """
        compute_s = self.config.compute_seconds_per_step
        if compute_s is None:
            return
        p = self.mesh.axis_size("pipe")
        if p > 1:
            per_stage = compute_s / p
            schedule = PipelineSchedule(
                num_stages=p,
                num_micro=self.config.accumulation_steps,
                fwd_time_s=per_stage * (1.0 - _BACKWARD_FRACTION),
                bwd_time_s=per_stage * _BACKWARD_FRACTION,
            )
            with self.comm.timeline.scope("pipeline"):
                schedule.record(
                    self.comm,
                    axis="pipe",
                    activation_bytes=4 * self.config.batch.local_batch_tokens,
                    tag=f"step{self.global_step}",
                )
            return
        total = compute_s * self.config.accumulation_steps
        head = total
        if self.config.overlap:
            n_sync = sum(1 for p in self._params if p.stacked_grads)
            if n_sync > 0:
                backward = total * _BACKWARD_FRACTION
                self._backward_slice_s = backward / n_sync
                head = total - backward
        self.comm.timeline.record_compute_all(head, name="fwd-bwd")

    def _sample_rngs(self) -> list[np.random.Generator]:
        """Per-rank candidate-sampler generators of the current micro-step.

        Stateless per call (keyed by ``data_step``), so the batched
        executor may ask for them late, or never.
        """
        return self.seed_assignment.rank_generators(step=self.data_step)

    def train_step(self) -> float:
        """One synchronous optimizer step across all ranks.

        Runs ``accumulation_steps`` micro-batches per rank (gradients
        accumulate locally), synchronizes once, and applies the update.
        Returns the mean training loss over ranks and micro-steps.
        """
        telemetry = self.telemetry
        if telemetry is not None:
            ledger_before = self.comm.ledger.snapshot()
            time_before = self.comm.timeline.mark()
        accum = self.config.accumulation_steps
        scale = self.scaler.scale if self.scaler is not None else 1.0
        losses = []
        for _ in range(accum):
            window = self.data_step % self.batcher.steps_per_epoch
            losses.extend(
                self.batched_executor.step(
                    self.batcher.step_batches(window),
                    sample_rngs=self._sample_rngs,
                    loss_scale=scale,
                )
            )
            self.data_step += 1
        self._record_step_compute()
        with self.comm.timeline.scope("sync"):
            self.synchronizer.sync_replicas([self.model])
        if accum > 1:
            self._scale_grads(1.0 / accum)
        skipped = False
        wire_scale = self.wire.fp16_scale if self.wire is not None else None
        if self.scaler is not None:
            self.scaler.unscale_grads(self._params)
            overflow = not grads_are_finite(self._params)
            self.scaler.update(overflow)
            if overflow:
                # Skip the poisoned update (standard AMP behaviour).
                for p in self._params:
                    p.zero_grad()
                self.skipped_steps += 1
                skipped = True
        elif wire_scale is not None and not grads_are_finite(self._params):
            # An FP16 wire's rank sum overflowed and nothing can back off.
            raise self._overflow_error(wire_scale)
        if not skipped:
            self.optimizer.step()
        self.global_step += 1
        mean_loss = float(np.mean(losses))
        if telemetry is not None:
            delta = self.comm.ledger.delta_since(ledger_before)
            telemetry.record_step(
                step=self.global_step,
                loss=mean_loss,
                train_ppl=float(np.exp(min(mean_loss, 50.0))),
                loss_scale=(
                    self.scaler.scale if self.scaler is not None else 1.0
                ),
                skipped=skipped,
                step_time_s=self.comm.timeline.elapsed_since(time_before),
                comm_time_s=delta.time_s,
                wire_bytes_per_rank=delta.wire_bytes_per_rank,
                collectives=delta.n_events,
                world_size=self.comm.world_size,
            )
        return mean_loss

    def _overflow_error(self, wire_scale: float) -> CompressionOverflowError:
        """The typed report of a non-finite gradient after an FP16 sync."""
        name = next(
            n for n, p in self.model.named_parameters()
            if not grads_are_finite([p])
        )
        return CompressionOverflowError(
            f"step {self.global_step + 1}: gradient {name!r} is not finite "
            f"after the FP16 wire's sync (data-parallel world "
            f"{self.data_parallel}, F={wire_scale:g}): the rank sum of "
            f"F-scaled gradients left the FP16 range (|x| <= {FP16_MAX:g}); "
            "lower F (e.g. 'fp16:64') or set loss_scale='dynamic' to skip "
            "and back off"
        )

    def _scale_grads(self, factor: float) -> None:
        """Scale every synchronized gradient in place (micro-batch mean)."""
        for p in self._params:
            if p.grad is not None:
                p.grad *= factor
            for s in p.sparse_grads:
                s.values *= factor

    def train_epoch(
        self,
        epoch: int | None = None,
        max_steps: int | None = None,
        evals_per_epoch: int = 2,
    ) -> EpochStats:
        """One epoch (optionally truncated) with periodic validation.

        The learning rate follows the per-epoch decay schedule.
        """
        epoch = self.epochs_done if epoch is None else epoch
        steps = max(
            1, self.batcher.steps_per_epoch // self.config.accumulation_steps
        )
        if max_steps is not None:
            if max_steps <= 0:
                raise ValueError("max_steps must be positive")
            steps = min(steps, max_steps)
        lr = self.schedule.lr_at_epoch(epoch)
        self.optimizer.lr = lr
        self.batcher.set_epoch(epoch)
        # Stateful models restart their carried BPTT state each epoch
        # (the underlying token streams restart too).
        self.batched_executor.carry = None

        eval_every = max(1, steps // max(1, evals_per_epoch))
        stats = EpochStats(epoch=epoch, mean_train_loss=0.0, lr=lr)
        loss_sum = 0.0
        for s in range(steps):
            loss_sum += self.train_step()
            if (s + 1) % eval_every == 0 or s == steps - 1:
                stats.eval_points.append(
                    EvalPoint(epoch=epoch + (s + 1) / steps, nll=self.evaluate())
                )
        stats.mean_train_loss = loss_sum / steps
        self.history.append(stats)
        self.epochs_done = epoch + 1
        return stats
