"""The five benchmark workloads, built from ``repro``'s public API only.

A workload knows how to *set up* a session from a seed, what one **op**
is (one ``DistributedTrainer.train_step()`` or one
``ServingEngine.run(stream)`` episode), how to read the simulated
counters of that session, and how to check its outputs against an
independent reference.  The runner (``run.py``) owns every host clock;
nothing in this module reads the time.

Every seed the library sees (corpus, shuffle, sampling, init, traffic)
is derived here from the single ``--seed``; the library receives only
generated inputs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from repro.cluster import COMPUTE_STREAM, Communicator
from repro.data import ONE_BILLION_WORD, TIEBA, BatchSpec, make_corpus
from repro.optim import SGD, Adam
from repro.serve import (
    ArrivalSpec,
    ServeConfig,
    ServingEngine,
    TrafficConfig,
    WordLMDecoder,
    generate_traffic,
    naive_serve,
    percentile,
)
from repro.telemetry import TelemetrySession
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    assert_replicas_synchronized,
)

__all__ = ["WORKLOADS", "CheckFailed", "derive_seeds"]

#: Ops run before the timed window (caches fill, lazy set-up finishes).
WARMUP_OPS = 2
#: Leading losses the lossless training checks compare bit for bit.
CHECK_STEPS = 3


class CheckFailed(Exception):
    """A workload's outputs disagree with its reference."""


def derive_seeds(seed: int, workload: str) -> dict[str, int]:
    """Every library-facing seed of one workload, from ``--seed``."""
    key = zlib.crc32(workload.encode())
    corpus, shuffle, data, init, traffic = (
        int(s) for s in np.random.SeedSequence([seed, key]).generate_state(5)
    )
    return {
        "corpus": corpus,
        "shuffle": shuffle,
        "data": data,
        "init": init,
        "traffic": traffic,
    }


def _sim_counters(comm: Communicator) -> dict[str, float]:
    """Cumulative simulated counters of one communicator (public API)."""
    timeline, ledger = comm.timeline, comm.ledger
    busy = [
        timeline.busy_time(r, COMPUTE_STREAM) for r in range(comm.world_size)
    ]
    by_op = ledger.bytes_by_op()
    return {
        "makespan_s": timeline.makespan,
        "wire_bytes_per_rank": ledger.total_wire_bytes_per_rank,
        "comm_s": ledger.total_time_s,
        "collectives": len(ledger.events),
        # Substring match: the mesh communicator records "mesh_allreduce".
        "allreduce_bytes": sum(v for k, v in by_op.items() if "allreduce" in k),
        "allgather_bytes": sum(v for k, v in by_op.items() if "allgather" in k),
        "compute_busy_max_s": max(busy),
        "compute_busy_mean_s": sum(busy) / len(busy),
    }


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------


class TrainSession:
    """One trainer plus the losses it has produced so far."""

    #: the per-layer metric the traced op span's self time is reported as
    self_metric = "train.step_glue_self_ms"

    def __init__(self, trainer: DistributedTrainer, tokens_per_op: int):
        self.trainer = trainer
        self.tokens_per_op = tokens_per_op
        self.losses: list[float] = []

    def op(self) -> tuple[int, bool]:
        """One optimizer step; returns (tokens processed, succeeded)."""
        loss = self.trainer.train_step()
        self.losses.append(loss)
        return self.tokens_per_op, math.isfinite(loss)

    def sim(self) -> dict[str, float]:
        comm = self.trainer.comm
        counters = _sim_counters(comm)
        counters["peak_bytes_per_rank"] = comm.peak_bytes_per_rank
        return counters

    def layer_readout(self, first: int, count: int) -> dict[str, float]:
        """Per-layer figures only the session can read (traced run).

        Codec figures cover the whole session (a ledger / timeline scan),
        per op; the loss is that of op ``first + count - 1``.
        """
        comm = self.trainer.comm
        codec_s = sum(
            e.duration
            for e in comm.timeline.events
            if e.rank == 0 and e.name.startswith("codec:")
        )
        return {
            "train.loss_at_end": self.losses[first + count - 1],
            "core.wire.compression_ratio": comm.ledger.compression_factor(),
            "core.wire.sim_codec_s": codec_s / len(self.losses),
        }


@dataclass(frozen=True)
class TrainWorkload:
    """A training workload: a measured config and its reference config.

    ``model`` builds the model config; ``config`` and ``reference`` are
    keyword overrides on a shared :class:`TrainConfig` base (the
    reference is always the per-rank loop, blocking, no codec, flat).
    ``loss_rtol`` is 0 for lossless configs (bit-equal losses) and the
    declared tolerance for the FP16 wire.
    """

    name: str
    why: str
    ops: int
    model: WordLMConfig | CharLMConfig
    corpus_tokens: int
    batch: BatchSpec
    base_lr: float
    optimizer: type
    config: dict
    reference: dict
    loss_rtol: float = 0.0
    telemetry: bool = False

    def _trainer(
        self, seed: int, overrides: dict, telemetry: bool
    ) -> DistributedTrainer:
        seeds = derive_seeds(seed, self.name)
        if isinstance(self.model, WordLMConfig):
            preset = ONE_BILLION_WORD
            factory = lambda rng, rank: WordLanguageModel(self.model, rng)
        else:
            preset = TIEBA
            factory = lambda rng, rank: CharLanguageModel(
                self.model, rng, dropout_rng=np.random.default_rng(rank)
            )
        corpus = make_corpus(
            preset.scaled(self.model.vocab_size),
            self.corpus_tokens,
            seed=seeds["corpus"],
        )
        config = TrainConfig(
            batch=self.batch,
            base_lr=self.base_lr,
            init_seed=seeds["init"],
            data_seed=seeds["data"],
            shuffle_seed=seeds["shuffle"],
            **overrides,
        )
        optimizer = self.optimizer
        return DistributedTrainer(
            factory,
            lambda params, lr: optimizer(params, lr),
            corpus.train,
            corpus.valid,
            config,
            comm=Communicator(config.world_size, track_memory=True),
            telemetry=TelemetrySession() if telemetry else None,
        )

    def setup(self, seed: int) -> TrainSession:
        trainer = self._trainer(seed, self.config, self.telemetry)
        tokens = (
            trainer.data_parallel
            * trainer.config.accumulation_steps
            * self.batch.local_batch_tokens
        )
        return TrainSession(trainer, tokens)

    def check(self, session: TrainSession, seed: int) -> None:
        """Leading losses against the reference trainer of ``seed``."""
        reference = self._trainer(seed, self.reference, telemetry=False)
        for step in range(CHECK_STEPS):
            want = reference.train_step()
            got = session.losses[step]
            # "not <=" so that a NaN loss fails the comparison
            if not abs(got - want) <= self.loss_rtol * abs(want):
                raise CheckFailed(
                    f"{self.name}: step {step} loss {got!r} != reference "
                    f"{want!r} (rtol {self.loss_rtol:g})"
                )
        try:
            assert_replicas_synchronized(session.trainer.replicas)
        except AssertionError as err:
            raise CheckFailed(f"{self.name}: {err}") from err


_WORD_SMALL = WordLMConfig(
    vocab_size=2000, embedding_dim=32, hidden_dim=64, projection_dim=32,
    num_samples=128,
)
_WORD_WIDE = WordLMConfig(
    vocab_size=20_000, embedding_dim=32, hidden_dim=16, projection_dim=32,
    num_samples=512,
)
_CHAR_MINI = CharLMConfig(
    vocab_size=150, embedding_dim=8, hidden_dim=12, depth=2, dropout=0.0
)


# ---------------------------------------------------------------------------
# the serving workload
# ---------------------------------------------------------------------------


class ServeSession:
    """A decoder plus the reports of the episodes served so far.

    Each episode builds a fresh communicator and engine (arrival times
    restart at zero per stream), so simulated counters are summed over
    episodes here rather than read off one long-lived timeline.
    """

    self_metric = "serve.engine_self_ms"

    def __init__(self, workload: "ServeWorkload", seed: int):
        self.workload = workload
        seeds = derive_seeds(seed, workload.name)
        self.traffic_seed = seeds["traffic"]
        model = WordLanguageModel(
            workload.model, np.random.default_rng(seeds["init"])
        )
        self.decoder = WordLMDecoder(model)
        self.config = ServeConfig(
            max_batch=workload.max_batch,
            seed=seeds["data"],
            drop_expired=False,
            cache_budget_bytes=workload.cache_states * self.decoder.state_nbytes,
        )
        self.reports: list = []
        self._totals = {
            "makespan_s": 0.0,
            "wire_bytes_per_rank": 0,
            "comm_s": 0.0,
            "collectives": 0,
            "allreduce_bytes": 0,
            "allgather_bytes": 0,
            "compute_busy_max_s": 0.0,
            "compute_busy_mean_s": 0.0,
        }
        self._peak_bytes = 0

    def stream(self, episode: int) -> list:
        """Episode ``episode``'s request stream (seeded, arrival-ordered)."""
        return generate_traffic(
            TrafficConfig(
                num_requests=self.workload.requests,
                vocab_size=self.workload.model.vocab_size,
                arrivals=self.workload.arrivals,
                seed=self.traffic_seed + episode,
            )
        )

    def op(self) -> tuple[int, bool]:
        """One episode; returns (generated tokens, every request served)."""
        stream = self.stream(len(self.reports))
        comm = Communicator(self.workload.world_size, track_memory=True)
        report = ServingEngine(self.decoder, comm, self.config).run(stream)
        self.reports.append(report)
        for key, value in _sim_counters(comm).items():
            self._totals[key] += value
        self._peak_bytes = max(self._peak_bytes, comm.peak_bytes_per_rank)
        served = len(report.requests) == len(stream) and not report.dropped
        return report.total_tokens, served

    def sim(self) -> dict[str, float]:
        return dict(self._totals, peak_bytes_per_rank=self._peak_bytes)

    def layer_readout(self, first: int, count: int) -> dict[str, float]:
        """Serving figures pooled over episodes ``first .. first+count``."""
        reports = self.reports[first : first + count]
        hits = sum(r.cache_stats["hits"] for r in reports)
        misses = sum(r.cache_stats["misses"] for r in reports)
        steps = sum(r.decode_steps for r in reports)
        tokens = sum(r.total_tokens for r in reports)
        ttft = [v for r in reports for v in r.ttft_values()]
        met = sum(1 for r in reports for c in r.finished if c.met_slo)
        return {
            "serve.decode_steps": steps / count,
            "serve.recomputes": sum(r.recomputes for r in reports) / count,
            "serve.cache_hit_ratio": hits / (hits + misses),
            "serve.batch_occupancy": tokens / (steps * self.config.max_batch),
            "serve.sim_p99_ttft_s": percentile(ttft, 99),
            "serve.sim_goodput_rps": met / sum(r.makespan_s for r in reports),
        }


@dataclass(frozen=True)
class ServeWorkload:
    """Zipfian/bursty request episodes through the continuous batcher."""

    name: str
    why: str
    ops: int
    model: WordLMConfig
    world_size: int
    max_batch: int
    cache_states: int
    requests: int
    arrivals: ArrivalSpec

    def setup(self, seed: int) -> ServeSession:
        return ServeSession(self, seed)

    def check(self, session: ServeSession, seed: int) -> None:
        """Episode 0 token-identical to one-request-at-a-time decode."""
        reference = ServeSession(self, seed)
        stream = reference.stream(0)
        naive = naive_serve(reference.decoder, stream, reference.config)
        served = {r.request_id: r.tokens for r in session.reports[0].requests}
        for want in naive.requests:
            got = served.get(want.request_id)
            if got != want.tokens:
                raise CheckFailed(
                    f"{self.name}: request {want.request_id} tokens {got!r} "
                    f"!= naive decode {want.tokens!r}"
                )
        if len(served) != len(stream):
            raise CheckFailed(
                f"{self.name}: {len(served)} requests reported, "
                f"{len(stream)} sent"
            )


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="word_flat",
            why="headline word LM on the per-rank Python loop, flat G=64: "
            "rank execution and per-rank optimizer steps dominate",
            ops=60,
            model=_WORD_SMALL,
            corpus_tokens=400_000,
            batch=BatchSpec(4, 20),
            base_lr=0.3,
            optimizer=SGD,
            config=dict(world_size=64),
            reference=dict(world_size=64, batched=False),
        ),
        TrainWorkload(
            name="char_batched",
            why="Table-V mini char LM at flat G=512 on the stacked-replica "
            "fast path: nn.batched dominates, word-LM changes must not show",
            ops=300,
            model=_CHAR_MINI,
            corpus_tokens=400_000,
            batch=BatchSpec(2, 8),
            base_lr=4e-3,
            optimizer=Adam,
            config=dict(world_size=512),
            reference=dict(world_size=512, batched=False),
        ),
        TrainWorkload(
            name="word_wire",
            why="20k-vocab word LM, flat G=32, fp16+entropy wire codec, "
            "fused reduce, overlap, telemetry on: sync and codec dominate",
            ops=36,
            model=_WORD_WIDE,
            corpus_tokens=400_000,
            batch=BatchSpec(8, 20),
            base_lr=0.3,
            optimizer=SGD,
            config=dict(
                world_size=32,
                wire_codec="fp16+entropy",
                fused_reduce=True,
                overlap=True,
                compute_seconds_per_step=0.05,
            ),
            reference=dict(world_size=32, batched=False),
            loss_rtol=1e-4,
            telemetry=True,
        ),
        TrainWorkload(
            name="mesh_hybrid",
            why="word_flat's model on a pipe=2,tensor=2,data=16 mesh with 4 "
            "micro-batches: the sharded data-axis sync driver and 1F1B placement",
            ops=72,
            model=_WORD_SMALL,
            corpus_tokens=400_000,
            batch=BatchSpec(4, 20),
            base_lr=0.3,
            optimizer=SGD,
            config=dict(
                world_size=64,
                mesh="pipe=2,tensor=2,data=16",
                accumulation_steps=4,
                compute_seconds_per_step=0.05,
            ),
            # Flat over the 16 data-parallel replicas; gpus_per_node=2 so
            # the LR rule sees the same 8 nodes as the 64-GPU mesh.
            reference=dict(
                world_size=16,
                gpus_per_node=2,
                accumulation_steps=4,
                batched=False,
            ),
        ),
        ServeWorkload(
            name="serve_burst",
            why="continuous-batching serving under Zipfian/bursty arrivals "
            "with a cache between thrash and all-hit; no training layer runs",
            ops=40,
            model=_WORD_SMALL,
            world_size=4,
            max_batch=8,
            cache_states=40,
            requests=256,
            # 20 ms phases: ~12 calm/burst cycles per episode, so episodes
            # of different seeds carry comparable load (50 ms phases moved
            # the simulated makespan by 5-11 % from seed to seed).
            arrivals=ArrivalSpec(
                calm_rate=150.0,
                burst_rate=1500.0,
                mean_calm_s=0.02,
                mean_burst_s=0.02,
            ),
        ),
    )
}
