"""Analytic per-epoch time and memory model (Tables III, IV, V; Figure 6).

The paper reports wall-clock hours on a 400-GPU Titan X cluster we do
not have; this model reconstructs those tables from first principles
plus a small number of **calibration constants** per workload:

* *compute seconds per iteration* — fixed per workload (the paper holds
  the local batch constant, so per-GPU FLOPs per iteration are
  constant), calibrated against the 8-GPU "with our technique" row;
* *overhead seconds* ``a*G + b*G^2`` — synchronization/straggler and
  framework overhead growing with scale, calibrated against the
  efficiency falloff of the "with our technique" column;
* *baseline inefficiency multiplier* — the TF-1.4 baseline's embedding
  path (sparse-gradient densification, serialized duplicate-row
  updates, no comm/compute overlap), calibrated against the 8-GPU
  "without our technique" row.

Everything else — wire volumes, link bandwidths, memory footprints,
type-count growth — comes from the cluster model (Table II constants)
and the Zipf law ``Ug = min(coeff*(G*K)^0.64, V)``.  The *shape* of each
table (who wins, crossovers, OOM onset, efficiency bands) is therefore
produced by the mechanisms the paper describes rather than fitted
point-by-point.

A key measured detail the memory model reproduces: the paper's baseline
peak memory (3.9/7.1/10.3 GB at 8/16/24 GPUs) grows by ~0.41 GB per
GPU = exactly two dense ``|V| x D`` FP32 matrices — the TensorFlow
baseline gathers *densified* embedding gradients (IndexedSlices ->
dense), not the K x D token blocks of the idealized description.  The
``baseline_gathers_dense_rows`` flag selects that behaviour for the word
LM.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster.collectives import ring_allgather_time, ring_allreduce_time
from ..core.complexity import expected_global_unique
from ..core.seeding import SeedStrategy, expected_unique_sampled, num_seed_groups
from .hardware import PAPER_PLATFORM, Platform

__all__ = [
    "TechniqueSet",
    "BASELINE",
    "UNIQUE_ONLY",
    "UNIQUE_SEEDING",
    "ALL_TECHNIQUES",
    "LMWorkload",
    "IterationCost",
    "PerfModel",
    "WORD_LM_1B",
    "CHAR_LM_1B",
    "CHAR_LM_TIEBA",
]

_IDX_BYTES = 4
_VAL_BYTES = 4


@dataclass(frozen=True)
class TechniqueSet:
    """Which of the paper's three optimizations are enabled.

    The paper applies them cumulatively (Figure 6): uniqueness, then
    seeding (meaningful only with sampled softmax), then compression.
    """

    unique: bool = False
    seeding: bool = False
    compression: bool = False

    def __post_init__(self) -> None:
        if self.seeding and not self.unique:
            raise ValueError(
                "seeding only matters for the unique exchange (Figure 6 "
                "applies techniques cumulatively)"
            )

    @property
    def label(self) -> str:
        if not self.unique:
            return "baseline"
        parts = ["+uniqueness"]
        if self.seeding:
            parts.append("+seeding")
        if self.compression:
            parts.append("+compression")
        return "".join(parts)


BASELINE = TechniqueSet()
UNIQUE_ONLY = TechniqueSet(unique=True)
UNIQUE_SEEDING = TechniqueSet(unique=True, seeding=True)
ALL_TECHNIQUES = TechniqueSet(unique=True, seeding=True, compression=True)


@dataclass(frozen=True)
class LMWorkload:
    """One evaluated training workload with its calibration constants."""

    name: str
    vocab_size: int
    embedding_dim: int
    local_batch_tokens: int          # K
    num_samples: int                 # S per GPU; 0 => full softmax
    dense_param_count: float         # params allreduced densely per iter
    tokens_per_epoch: float
    fixed_bytes_per_gpu: float       # params+grads+optimizer+activations
    compute_seconds_per_iter: float  # calibrated
    overhead_linear: float           # a in a*G + b*G^2 (seconds)
    overhead_quadratic: float        # b
    baseline_gathers_dense_rows: bool
    baseline_inefficiency: float = 1.0
    cast_overhead_seconds: float = 0.0   # FP16 down/up-cast cost per iter
    heaps_coeff: float = 7.02
    heaps_alpha: float = 0.64

    def __post_init__(self) -> None:
        if min(self.vocab_size, self.embedding_dim, self.local_batch_tokens) <= 0:
            raise ValueError("dimensions must be positive")
        if self.num_samples < 0:
            raise ValueError("num_samples must be non-negative")
        if self.compute_seconds_per_iter <= 0:
            raise ValueError("compute_seconds_per_iter must be positive")
        if self.baseline_inefficiency < 1.0:
            raise ValueError("baseline_inefficiency must be >= 1")

    @property
    def uses_sampled_softmax(self) -> bool:
        return self.num_samples > 0

    def scaled(self, **overrides: object) -> "LMWorkload":
        return replace(self, **overrides)


@dataclass(frozen=True)
class IterationCost:
    """Per-iteration time breakdown (seconds)."""

    compute: float
    dense_allreduce: float
    input_exchange: float
    output_exchange: float
    local_update: float
    overhead: float
    cast_overhead: float

    @property
    def total(self) -> float:
        return (
            self.compute
            + self.dense_allreduce
            + self.input_exchange
            + self.output_exchange
            + self.local_update
            + self.overhead
            + self.cast_overhead
        )


class PerfModel:
    """Evaluate time/memory of one workload on one platform."""

    def __init__(self, workload: LMWorkload, platform: Platform = PAPER_PLATFORM):
        self.w = workload
        self.platform = platform

    # ---- structural quantities ----------------------------------------

    def iterations_per_epoch(self, world: int) -> float:
        self._check_world(world)
        return self.w.tokens_per_epoch / (world * self.w.local_batch_tokens)

    def unique_input_rows(self, world: int) -> float:
        """Ug for the input embedding: Zipf growth capped at |V|."""
        return expected_global_unique(
            world * self.w.local_batch_tokens,
            alpha=self.w.heaps_alpha,
            coeff=self.w.heaps_coeff,
            vocab_size=self.w.vocab_size,
        )

    def unique_output_rows(self, world: int, seeding: bool) -> float:
        """Distinct output-embedding rows touched per step.

        Candidate union across seed groups plus the true-target types.
        Without seeding every rank samples independently (G groups);
        with it, the Zipf-freq strategy's ~G^0.64 groups.
        """
        if not self.w.uses_sampled_softmax:
            return 0.0
        strategy = SeedStrategy.ZIPF_FREQ if seeding else SeedStrategy.PER_RANK
        groups = num_seed_groups(strategy, world)
        union = expected_unique_sampled(
            groups, self.w.num_samples, self.w.vocab_size
        )
        return min(union + self.unique_input_rows(world), float(self.w.vocab_size))

    def _baseline_rows(self) -> tuple[float, float]:
        """(input, output) rows per rank the baseline gathers."""
        if self.w.baseline_gathers_dense_rows:
            rows_in = float(self.w.vocab_size)
            rows_out = float(self.w.vocab_size) if self.w.uses_sampled_softmax else 0.0
        else:
            rows_in = float(self.w.local_batch_tokens)
            rows_out = (
                float(self.w.local_batch_tokens + self.w.num_samples)
                if self.w.uses_sampled_softmax
                else 0.0
            )
        return rows_in, rows_out

    def _check_world(self, world: int) -> None:
        if not 0 < world <= self.platform.max_gpus:
            raise ValueError(
                f"world must be in 1..{self.platform.max_gpus}, got {world}"
            )

    # ---- time ------------------------------------------------------------

    def iteration_cost(self, world: int, tech: TechniqueSet) -> IterationCost:
        self._check_world(world)
        w = self.w
        link = self.platform.fabric.ring_link(world)
        val_bytes = _VAL_BYTES // 2 if tech.compression else _VAL_BYTES
        d = w.embedding_dim

        dense = ring_allreduce_time(world, int(w.dense_param_count) * val_bytes, link)

        if tech.unique:
            ug_in = self.unique_input_rows(world)
            ug_out = self.unique_output_rows(world, tech.seeding)
            idx_gather = ring_allgather_time(
                world, w.local_batch_tokens * _IDX_BYTES, link
            )
            input_ex = idx_gather + ring_allreduce_time(
                world, int(ug_in * d * val_bytes), link
            )
            output_ex = 0.0
            if w.uses_sampled_softmax:
                output_ex = ring_allgather_time(
                    world, (w.local_batch_tokens + w.num_samples) * _IDX_BYTES, link
                ) + ring_allreduce_time(world, int(ug_out * d * val_bytes), link)
            # Conflict-free scatter update at memory bandwidth.
            update_bytes = 2 * (ug_in + ug_out) * d * _VAL_BYTES
            update = update_bytes / self.platform.device.memory_bandwidth
        else:
            rows_in, rows_out = self._baseline_rows()
            input_ex = ring_allgather_time(world, int(rows_in * d * val_bytes), link)
            output_ex = (
                ring_allgather_time(world, int(rows_out * d * val_bytes), link)
                if rows_out
                else 0.0
            )
            # Apply all G gathered blocks, with the duplicate-row
            # serialization penalty folded into baseline_inefficiency.
            update_bytes = 2 * world * (rows_in + rows_out) * d * _VAL_BYTES
            update = update_bytes / self.platform.device.memory_bandwidth
            input_ex *= w.baseline_inefficiency
            output_ex *= w.baseline_inefficiency
            update *= w.baseline_inefficiency

        overhead = w.overhead_linear * world + w.overhead_quadratic * world**2
        cast = w.cast_overhead_seconds if tech.compression else 0.0
        return IterationCost(
            compute=w.compute_seconds_per_iter,
            dense_allreduce=dense,
            input_exchange=input_ex,
            output_exchange=output_ex,
            local_update=update,
            overhead=overhead,
            cast_overhead=cast,
        )

    def epoch_hours(self, world: int, tech: TechniqueSet) -> float:
        return (
            self.iterations_per_epoch(world)
            * self.iteration_cost(world, tech).total
            / 3600.0
        )

    # ---- memory ------------------------------------------------------------

    def peak_memory_bytes(self, world: int, tech: TechniqueSet) -> float:
        """Per-GPU peak: fixed footprint + exchange scratch."""
        self._check_world(world)
        w = self.w
        d = w.embedding_dim
        val_bytes = _VAL_BYTES // 2 if tech.compression else _VAL_BYTES
        if tech.unique:
            ug_in = self.unique_input_rows(world)
            ug_out = self.unique_output_rows(world, tech.seeding)
            scratch = (
                world * w.local_batch_tokens * _IDX_BYTES
                + (ug_in + ug_out) * d * val_bytes
            )
        else:
            rows_in, rows_out = self._baseline_rows()
            scratch = world * (rows_in + rows_out) * d * val_bytes
        return w.fixed_bytes_per_gpu + scratch

    def is_oom(self, world: int, tech: TechniqueSet) -> bool:
        """Would this configuration exceed the device's memory?"""
        return (
            self.peak_memory_bytes(world, tech)
            > self.platform.device.memory_bytes
        )

    def oom_onset(self, tech: TechniqueSet) -> int | None:
        """Smallest GPU count at which this configuration runs out of
        memory, or None if it fits everywhere up to the platform limit.

        Memory grows monotonically with the world size for every
        technique set, so bisecting ``is_oom`` gives the exact onset —
        the ``*`` boundary of Tables III/IV.
        """
        fits, oom = 0, self.platform.max_gpus
        if not self.is_oom(oom, tech):
            return None
        while oom - fits > 1:  # fits < onset <= oom
            middle = (fits + oom) // 2
            if self.is_oom(middle, tech):
                oom = middle
            else:
                fits = middle
        return oom

    def parallel_efficiency(
        self, world: int, tech: TechniqueSet, reference_world: int = 8
    ) -> float:
        """Table III/IV efficiency: speedup over the reference divided by
        the ideal GPU ratio.  The reference is the *same technique set* at
        ``reference_world`` GPUs, as in the paper."""
        t_ref = self.epoch_hours(reference_world, tech)
        t = self.epoch_hours(world, tech)
        return (t_ref / t) / (world / reference_world)


# ---------------------------------------------------------------------------
# Workload presets, calibrated as documented in the module docstring.
# ---------------------------------------------------------------------------

#: Word LM on the 1-Billion-Word dataset (Table III, Figures 5-7).
#: K = 32 seqs x 20 tokens; S = 1024; dense params = LSTM + projection.
WORD_LM_1B = LMWorkload(
    name="word-lm-1b",
    vocab_size=100_000,
    embedding_dim=512,
    local_batch_tokens=32 * 20,
    num_samples=1024,
    dense_param_count=(512 + 2048) * 4 * 2048 + 2048 * 512,
    tokens_per_epoch=0.768e9,
    fixed_bytes_per_gpu=1.0e9,
    # Derived from Table III's "with our technique" column via
    # repro.perf.calibration.calibrate_workload (max row error < 3%).
    compute_seconds_per_iter=0.3039,
    overhead_linear=3.96e-3,
    overhead_quadratic=7.04e-5,
    baseline_gathers_dense_rows=True,
    baseline_inefficiency=2.0,
)

#: Char LM on the 1-Billion-Word dataset (Table IV, Figure 8).
#: K = 128 seqs x 150 chars; full softmax; 213M dense params.
CHAR_LM_1B = LMWorkload(
    name="char-lm-1b",
    vocab_size=98,
    embedding_dim=1792,
    local_batch_tokens=128 * 150,
    num_samples=0,
    dense_param_count=213e6,
    tokens_per_epoch=4.15e9,
    fixed_bytes_per_gpu=8.6e9,
    # Derived from Table IV's "with our technique" column via
    # repro.perf.calibration.calibrate_workload (max row error ~4%).
    compute_seconds_per_iter=3.0065,
    overhead_linear=9.32e-3,
    overhead_quadratic=0.0,
    baseline_gathers_dense_rows=False,
    baseline_inefficiency=1.6,
    cast_overhead_seconds=0.06,  # >20 tensors to down/up-cast (Section V-B)
)

#: Char LM on Tieba (Table V weak scaling): 15,437-symbol vocabulary.
#: tokens_per_epoch describes the 6-GPU / 1.07B-char point; the weak-
#: scaling bench scales it together with the GPU count.
CHAR_LM_TIEBA = LMWorkload(
    name="char-lm-tieba",
    vocab_size=15_437,
    embedding_dim=1792,
    local_batch_tokens=128 * 150,
    num_samples=0,
    dense_param_count=240e6,
    tokens_per_epoch=1.07e9,
    fixed_bytes_per_gpu=8.2e9,
    # Derived from Table V's three weak-scaling rows (exact fit: the
    # system has two unknowns and three near-collinear rows).
    compute_seconds_per_iter=10.282,
    overhead_linear=1.378e-2,
    overhead_quadratic=0.0,
    baseline_gathers_dense_rows=False,
    baseline_inefficiency=1.6,
    cast_overhead_seconds=0.06,
)
