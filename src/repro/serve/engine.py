"""The serving engine: continuous batching on the simulated cluster.

One :class:`ServingEngine` drives a decoder (see
:mod:`repro.serve.decoders`) over a request stream on a simulated
multi-GPU replica group:

* the :class:`~repro.serve.scheduler.ContinuousBatchingScheduler`
  re-forms the active batch at every decode-step boundary;
* per-request recurrent states live in the slot arena of the
  :class:`~repro.serve.state_cache.RecurrentStateCache` — pinned while
  active, speculative (evictable, recomputable) while queued;
* each piece of decoder work happens once: a decode step is one
  ``decoder.step`` call over every active row, and every prompt is
  folded once per run, in lock step through the head-less
  ``decoder.advance``, into a prompt table whose row each prefill
  (admission miss, speculative, or recompute) copies into its slot;
* each step's embedding rows come from the replica-sharded
  :func:`~repro.serve.embedding.sharded_embedding_lookup`, so decode
  collectives land on the Timeline and charge the CostLedger exactly
  like training traffic;
* simulated time *is* the timeline makespan: idle gaps advance the
  compute clocks to the next arrival, decode work is charged per rank,
  and request latencies are read off the schedule.

Fault handling composes with :class:`~repro.cluster.failures.\
ChaosCommunicator`: transient link faults retry the step's collectives
with charged backoff; a rank loss rebuilds the communicator one rank
smaller (a new *generation*, same ledger), re-admits the lost replica's
in-flight requests at the queue head (emitted tokens are kept — only
the decoder state is recomputed), and carries the clock forward.

Determinism
-----------
Token output is independent of scheduling: the decode kernels are
batch-invariant (:func:`repro.nn.functional.row_matmul`) and sampling
draws from ``default_rng((seed, request_id, position))``.
:func:`naive_serve` — one request at a time, no batching, no cluster —
therefore produces token-identical streams, which the differential
suite asserts across seeds, models, and chaos plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.communicator import Communicator
from ..cluster.failures import RankFailureError, TransientLinkError
from .decoders import fold_histories, sample_token, stack_states
from .embedding import sharded_embedding_lookup
from .metrics import ServingReport
from .request import CompletedRequest, ServeRequest
from .scheduler import ContinuousBatchingScheduler
from .state_cache import RecurrentStateCache

__all__ = ["ServeConfig", "ServingEngine", "naive_serve"]

#: Host bytes of (embedded prompt + state) rows one block of the per-run
#: prompt fold holds.  Folding a 256-request table in one block raised
#: the e2e ``serve_burst`` peak RSS by ~5 % for no speed; blocks of a few
#: dozen rows keep the fold's temporaries cache-sized.
_FOLD_BLOCK_BYTES = 128 << 10


@dataclass(frozen=True)
class ServeConfig:
    """Engine policy and cost-model knobs.

    ``prefill_token_s`` / ``decode_token_s`` are the simulated compute
    charges per token (prefill replay vs. batched decode); they shape
    the timeline, never the numerics.
    """

    max_batch: int = 8
    temperature: float = 0.0
    seed: int = 0
    drop_expired: bool = True
    cache_budget_bytes: int = 1 << 22
    prefill_token_s: float = 1e-4
    decode_token_s: float = 2e-4
    failover_s: float = 5e-3
    retry_backoff_s: float = 1e-3
    max_transient_retries: int = 8
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.cache_budget_bytes <= 0:
            raise ValueError("cache_budget_bytes must be positive")
        if min(self.prefill_token_s, self.decode_token_s) < 0:
            raise ValueError("per-token costs must be non-negative")
        if self.max_transient_retries < 1 or self.max_steps < 1:
            raise ValueError("retry and step limits must be positive")


class _StepAborted(Exception):
    """Internal: a rank loss aborted the current decode step pre-emission."""


class ServingEngine:
    """Continuous-batching inference over one simulated replica group.

    Parameters
    ----------
    decoder:
        A batch-invariant decode adapter (``WordLMDecoder`` /
        ``CharLMDecoder`` or any object following the protocol).
    comm:
        The replica-group communicator; may be a
        :class:`~repro.cluster.failures.ChaosCommunicator`.
    config:
        Engine policy knobs.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetrySession`; each
        communicator generation is tracked, and every decode step emits
        a step record.
    comm_factory:
        ``f(world_size, ledger) -> Communicator`` used to rebuild after
        a rank loss; defaults to a plain :class:`Communicator` sharing
        the current ledger (wire totals accumulate across generations).
    """

    def __init__(
        self,
        decoder,
        comm: Communicator,
        config: ServeConfig | None = None,
        telemetry=None,
        comm_factory=None,
    ):
        self.decoder = decoder
        self.comm = comm
        self.config = config if config is not None else ServeConfig()
        if self.config.max_batch * decoder.state_nbytes > self.config.cache_budget_bytes:
            raise ValueError(
                "cache budget cannot hold a full active batch: "
                f"{self.config.max_batch} x {decoder.state_nbytes} B > "
                f"{self.config.cache_budget_bytes} B"
            )
        self.telemetry = telemetry
        self._comm_factory = comm_factory
        self.cache = RecurrentStateCache(
            self.config.cache_budget_bytes,
            decoder.init_state(),
            comm.devices if comm.track_memory else None,
        )
        self.scheduler: ContinuousBatchingScheduler | None = None
        self.generations = 1
        self.recomputes = 0
        self._time_base = 0.0
        self._admissions = 0
        self._speculated: set[int] = set()
        self._prompt_row: dict[int, int] = {}  # request id -> table row
        self._prompt_table: tuple[np.ndarray, ...] = ()
        if telemetry is not None:
            telemetry.track(comm, label="serve-gen0")

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------

    @property
    def now_s(self) -> float:
        """Current simulated time (all generations' makespans)."""
        return self._time_base + self.comm.timeline.makespan

    def _advance_to(self, target_s: float) -> None:
        """Idle the cluster until ``target_s`` (the next arrival)."""
        rel = target_s - self._time_base + 1e-9
        timeline = self.comm.timeline
        for r in range(self.comm.world_size):  # mesh-ok: SPMD idle-advance charges every simulated clock
            delta = rel - timeline.compute_clock[r]
            if delta > 0:
                timeline.record_compute(
                    r, delta / timeline.compute_scale[r], name="serve:idle"
                )

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------

    def _fold_prompts(self) -> None:
        """Fold every request's ``prompt[:-1]`` once, into the run's table.

        A prompt's state is a pure function of its tokens (the kernels
        are batch-invariant), so each is folded once per run, in lock
        step, a row block at a time to keep the working set small.
        """
        records = self.scheduler.records
        histories = [rec.request.prompt[:-1] for rec in records.values()]
        self._prompt_row = {rid: row for row, rid in enumerate(records)}
        self._prompt_table = tuple(
            np.empty((len(histories),) + part.shape, part.dtype)
            for part in self.decoder.init_state()
        )
        longest = max((h.size for h in histories), default=0)
        row_bytes = (
            longest * self.decoder.embedding_weight[0].nbytes
            + self.decoder.state_nbytes
        )
        block = max(1, _FOLD_BLOCK_BYTES // row_bytes)
        for lo in range(0, len(histories), block):
            folded = fold_histories(self.decoder, histories[lo : lo + block])
            for part, rows in zip(self._prompt_table, folded):
                part[lo : lo + block] = rows

    def _replay(self, rids: list[int]) -> None:
        """Write each request's current state into its slot, in one lock step.

        The state is the request's prompt-table row with its emitted
        history folded on top: a request that emitted nothing (every
        one but a rank-loss readmission) folds an empty suffix, a copy.
        Local compute only; the simulated cost is charged by the caller,
        per request.  A request that was refused, or evicted by a later
        put of the same pass, holds no slot and is skipped.
        """
        slots, rows, suffixes = [], [], []
        for rid in rids:
            entry = self.cache.peek(rid)
            if entry is not None:
                rec = self.scheduler.records[rid]
                slots.append(entry.slot)
                rows.append(self._prompt_row[rid])
                prompt_folded = rec.request.prompt.size - 1
                suffixes.append(rec.consumed_tokens[prompt_folded:-1])
        if slots:
            start = tuple(part[rows] for part in self._prompt_table)
            folded = fold_histories(self.decoder, suffixes, start)
            self.cache.store(slots, folded)

    def _charge_prefill(self, n_tokens: int) -> None:
        rank = self._admissions % self.comm.world_size
        self._admissions += 1
        if n_tokens > 0:
            self.comm.timeline.record_compute(
                rank, n_tokens * self.config.prefill_token_s, name="serve:prefill"
            )

    def _admit(self, admitted: list[int]) -> None:
        """Pin each admitted request's state: cache hit or replay."""
        misses = []
        for rid in admitted:
            rec = self.scheduler.records[rid]
            n_folded = rec.n_consumed - 1
            entry = self.cache.get(rid)
            if entry is not None and entry.n_consumed == n_folded:
                self.cache.pin(rid)
                continue
            if entry is not None:
                self.cache.release(rid)
            self._charge_prefill(n_folded)
            if entry is not None or rid in self._speculated or rec.readmissions:
                self.recomputes += 1
            self.cache.put(rid, n_folded, pinned=True)
            misses.append(rid)
        self._replay(misses)

    def _speculative_prefill(self, now: float) -> None:
        """Prefill arrived-but-queued requests into the evictable cache."""
        sched = self.scheduler
        fresh = []
        for rid in sched.arrived_ids(now):
            if rid in self._speculated or rid in self.cache:
                continue
            self._speculated.add(rid)
            n_folded = sched.records[rid].n_consumed - 1
            self._charge_prefill(n_folded)
            self.cache.put(rid, n_folded, pinned=False)
            fresh.append(rid)
        self._replay(fresh)

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------

    def _handle_rank_loss(self, err: RankFailureError) -> None:
        """Shrink the world, re-admit the dead replica's requests."""
        new_world = self.comm.world_size - 1
        if new_world < 1:
            raise err
        sched = self.scheduler
        shard = self._shards(sched.active)[err.rank]
        now = self.now_s
        for rid in reversed(shard):  # reversed: inserts at head keep order
            sched.readmit(rid, now)
            self.cache.release(rid)
        self._time_base += self.comm.timeline.makespan
        factory = self._comm_factory
        if factory is None:
            factory = lambda world, ledger: Communicator(
                world, ledger=ledger, track_memory=self.comm.track_memory
            )
        self.comm = factory(new_world, self.comm.ledger)
        self.generations += 1
        self.cache.rebind(self.comm.devices if self.comm.track_memory else None)
        if self.telemetry is not None:
            self.telemetry.track(
                self.comm, label=f"serve-gen{self.generations - 1}"
            )
            self.telemetry.record_event(
                "rank_loss", step=len(sched.events), detail=f"rank {err.rank}"
            )
        self.comm.timeline.record_compute_all(
            self.config.failover_s, name="serve:failover"
        )

    # ------------------------------------------------------------------
    # the decode loop
    # ------------------------------------------------------------------

    def _shards(self, active: list[int]) -> list[list[int]]:
        """Round-robin shard of the active set across ranks."""
        world = self.comm.world_size
        return [active[r::world] for r in range(world)]  # mesh-ok: SPMD driver partitions the flat replica group

    def _lookup_rows(
        self, shards: list[list[int]], step: int
    ) -> list[np.ndarray]:
        """The step's sharded embedding gather, with transient retries."""
        sched = self.scheduler
        ids_per_rank = [
            np.array([sched.records[rid].last_token for rid in shard], dtype=np.int64)
            for shard in shards
        ]
        attempts = 0
        while True:
            try:
                return sharded_embedding_lookup(
                    self.comm,
                    self.decoder.embedding_weight,
                    ids_per_rank,
                    tag=f"step{step}",
                )
            except TransientLinkError:
                attempts += 1
                if attempts > self.config.max_transient_retries:
                    raise
                self.comm.timeline.record_compute_all(
                    attempts * self.config.retry_backoff_s,
                    name="serve:retry-backoff",
                )
            except RankFailureError as err:
                self._handle_rank_loss(err)
                raise _StepAborted() from err

    def run(self, requests: list[ServeRequest]) -> ServingReport:
        """Serve the stream to completion; returns the outcome report.

        Terminates when every request is finished or dropped; raises
        ``RuntimeError`` past ``config.max_steps`` (a scheduling bug,
        not a load condition — the step count is bounded by total
        tokens plus idle hops).  The stream is validated before any work:
        a prompt id or ``eos_token`` outside the vocabulary is a
        ``ValueError`` naming the request.
        """
        config = self.config
        vocab = self.decoder.vocab_size
        for req in requests:
            ids = req.prompt
            if req.eos_token is not None:
                ids = np.append(ids, req.eos_token)
            if ids.min() < 0 or ids.max() >= vocab:
                raise ValueError(
                    f"request {req.request_id}: prompt ids and eos_token "
                    f"must be in [0, {vocab})"
                )
        sched = ContinuousBatchingScheduler(
            requests, config.max_batch, drop_expired=config.drop_expired
        )
        self.scheduler = sched
        self._fold_prompts()
        decode_steps = 0
        loop_iterations = 0
        while not sched.done:
            loop_iterations += 1
            if loop_iterations > config.max_steps:
                raise RuntimeError(
                    f"serving loop exceeded {config.max_steps} iterations"
                )
            now = self.now_s
            admitted, _dropped = sched.poll(now)
            for rid in _dropped:
                self.cache.release(rid)
            if admitted:
                self._admit(admitted)
            if not sched.active:
                next_arrival = sched.next_arrival_s(now)
                if next_arrival is None:
                    continue  # deadline policy just drained the queue
                self._advance_to(next_arrival)
                continue
            self._speculative_prefill(now)

            shards = self._shards(list(sched.active))
            step_start = self.now_s
            try:
                rows_per_rank = self._lookup_rows(shards, decode_steps)
            except _StepAborted:
                continue
            decode_steps += 1
            # One kernel call over every active row, rank-major; the
            # simulated cost below is still charged to each rank's shard.
            order = [rid for shard in shards for rid in shard]
            entries = [self.cache.peek(rid) for rid in order]
            slots = [entry.slot for entry in entries]
            logits, new_states = self.decoder.step(
                np.concatenate(rows_per_rank), self.cache.rows(slots)
            )
            self.cache.store(slots, new_states)
            if config.temperature == 0.0:
                tokens = np.argmax(logits, axis=1).tolist()
            else:
                tokens = []
                for row, rid in zip(logits, order):
                    position = len(sched.records[rid].emitted)
                    rng = np.random.default_rng((config.seed, rid, position))
                    tokens.append(sample_token(row, rng, config.temperature))
            emit_s = []
            for r, shard in enumerate(shards):  # mesh-ok: SPMD driver charges every rank's shard
                if shard:
                    event = self.comm.timeline.record_compute(
                        r, len(shard) * config.decode_token_s, name="serve:decode"
                    )
                    emit_s += [self._time_base + event.end] * len(shard)
            for rid, entry, token, at_s in zip(order, entries, tokens, emit_s):
                if sched.record_token(rid, token, at_s) is not None:
                    self.cache.release(rid)
                else:
                    entry.n_consumed += 1
            if self.telemetry is not None:
                self.telemetry.record_step(
                    step=decode_steps,
                    active=len(sched.active),
                    queued=len(sched.queued_ids()),
                    sim_time_s=self.now_s,
                    step_time_s=self.now_s - step_start,
                )
        return self._build_report(decode_steps)

    def _build_report(self, decode_steps: int) -> ServingReport:
        sched = self.scheduler
        records = []
        for rid, rec in sorted(sched.records.items()):
            records.append(
                CompletedRequest(
                    request_id=rid,
                    tokens=tuple(rec.emitted),
                    finish_reason=rec.finish_reason,
                    arrival_s=rec.request.arrival_s,
                    finish_s=rec.finish_s,
                    slo_s=rec.request.slo_s,
                    token_times_s=tuple(rec.token_times_s),
                )
            )
        return ServingReport(
            requests=tuple(records),
            makespan_s=self.now_s,
            wire_bytes_per_rank=self.comm.ledger.total_wire_bytes_per_rank,
            decode_steps=decode_steps,
            generations=self.generations,
            readmissions=sum(r.readmissions for r in sched.records.values()),
            recomputes=self.recomputes,
            cache_stats={
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "resident_bytes": self.cache.resident_bytes,
            },
        )


def naive_serve(
    decoder, requests: list[ServeRequest], config: ServeConfig | None = None
) -> ServingReport:
    """One-request-at-a-time decode: the differential baseline.

    No batching, no cluster, no cache, no drop policy — requests are
    served serially in arrival order on a single replica, through the
    *same* batch-invariant kernels and the same per-``(seed, request_id,
    position)`` sampling streams.  Token output is therefore bitwise
    identical to :meth:`ServingEngine.run`; what differs is the
    schedule, which is the quantity the benchmarks compare.
    """
    config = config if config is not None else ServeConfig()
    clock = 0.0
    records = []
    total_tokens = 0
    for req in sorted(requests, key=lambda r: (r.arrival_s, r.request_id)):
        clock = max(clock, req.arrival_s)
        folded = [int(t) for t in req.prompt[:-1]]
        states = stack_states([decoder.init_state()])
        for token in folded:
            x = decoder.embedding_weight[token][np.newaxis, :]
            _, states = decoder.step(x, states)
        clock += len(folded) * config.prefill_token_s
        last = int(req.prompt[-1])
        emitted: list[int] = []
        times: list[float] = []
        reason = None
        while reason is None:
            x = decoder.embedding_weight[last][np.newaxis, :]
            logits, states = decoder.step(x, states)
            clock += config.decode_token_s
            rng = (
                None
                if config.temperature == 0.0
                else np.random.default_rng(
                    (config.seed, req.request_id, len(emitted))
                )
            )
            token = sample_token(logits[0], rng, temperature=config.temperature)
            emitted.append(token)
            times.append(clock)
            if req.eos_token is not None and token == req.eos_token:
                reason = "eos"
            elif len(emitted) >= req.max_new_tokens:
                reason = "length"
            last = token
        total_tokens += len(emitted)
        records.append(
            CompletedRequest(
                request_id=req.request_id,
                tokens=tuple(emitted),
                finish_reason=reason,
                arrival_s=req.arrival_s,
                finish_s=clock,
                slo_s=req.slo_s,
                token_times_s=tuple(times),
            )
        )
    records.sort(key=lambda r: r.request_id)
    return ServingReport(
        requests=tuple(records),
        makespan_s=clock,
        wire_bytes_per_rank=0,
        decode_steps=total_tokens,
        generations=1,
    )
