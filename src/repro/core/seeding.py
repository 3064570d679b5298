"""The *seeding* technique (Section III-B): controlled randomness for
sampled softmax.

With per-GPU random seeds, the G sampled candidate sets are disjoint
with high probability for a large vocabulary, so the output-embedding
gradient exchange sees ~G·S distinct rows — the Zipf compression
evaporates.  With a single shared seed all GPUs sample the *same* S
words, maximizing overlap but hurting accuracy through lost sample
diversity.

The paper explores the spectrum: assign the G GPUs to ``m`` *seed
groups*; GPUs within a group share a sampler seed.  Evaluated choices
for ``m``: ``G`` (fully independent), ``log2 G``, ``ln G``, ``log10 G``,
``1`` (fully shared), the power law ``G^0.64``, and *Zipf-freq* — group
**sizes** proportional to the Zipf frequency distribution, which Figure 7
shows matches full-G accuracy at far fewer distinct seeds (pareto
optimal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from enum import Enum

import numpy as np

from ..cluster.process_group import partition_ranks
from ..data.zipf import ZipfMandelbrot

__all__ = [
    "SeedStrategy",
    "num_seed_groups",
    "seed_group_sizes",
    "SeedAssignment",
    "assign_seeds",
    "expected_unique_sampled",
]

#: Empirical power-law exponent from the paper (U ∝ N^0.64).
PAPER_ALPHA = 0.64


class SeedStrategy(str, Enum):
    """How many distinct sampler seeds G GPUs use, and how they spread."""

    ALL_SAME = "all_same"          # 1 seed: max overlap, worst accuracy
    PER_RANK = "per_rank"          # G seeds: the accuracy reference ("G")
    LOG2 = "log2"                  # ~log2(G) seeds
    LOGE = "loge"                  # ~ln(G) seeds
    LOG10 = "log10"                # ~log10(G) seeds
    POWER_LAW = "power_law"        # ~G^0.64 seeds, equal group sizes
    ZIPF_FREQ = "zipf_freq"        # ~G^0.64 seeds, Zipf-proportional sizes


def num_seed_groups(strategy: SeedStrategy, world_size: int) -> int:
    """Number of distinct seeds ``m`` for a given strategy and G GPUs."""
    if world_size <= 0:
        raise ValueError("world_size must be positive")
    g = world_size
    if strategy is SeedStrategy.ALL_SAME:
        m = 1
    elif strategy is SeedStrategy.PER_RANK:
        m = g
    elif strategy is SeedStrategy.LOG2:
        m = round(math.log2(g)) if g > 1 else 1
    elif strategy is SeedStrategy.LOGE:
        m = round(math.log(g)) if g > 1 else 1
    elif strategy is SeedStrategy.LOG10:
        m = round(math.log10(g)) if g > 1 else 1
    elif strategy in (SeedStrategy.POWER_LAW, SeedStrategy.ZIPF_FREQ):
        m = round(g**PAPER_ALPHA)
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unknown strategy {strategy}")
    return max(1, min(m, g))


def seed_group_sizes(strategy: SeedStrategy, world_size: int) -> list[int]:
    """Group sizes (summing to G), largest group first.

    Equal-split for every strategy except ``ZIPF_FREQ``, whose sizes are
    proportional to a Zipf pmf over groups — many GPUs share the "head"
    seed while tail seeds serve few GPUs, mirroring how word frequency
    itself distributes.
    """
    m = num_seed_groups(strategy, world_size)
    if strategy is not SeedStrategy.ZIPF_FREQ:
        return [g.size for g in partition_ranks(world_size, m)]
    pmf = ZipfMandelbrot(vocab_size=m, exponent=1.0).pmf
    raw = pmf * world_size
    sizes = np.maximum(1, np.floor(raw).astype(int))
    # Distribute the remainder to the largest groups, preserving order.
    deficit = world_size - int(sizes.sum())
    i = 0
    while deficit > 0:
        sizes[i % m] += 1
        deficit -= 1
        i += 1
    while deficit < 0:
        # Shrink from the tail but never below one rank per group.
        for j in range(m - 1, -1, -1):
            if sizes[j] > 1:
                sizes[j] -= 1
                deficit += 1
                break
        else:  # pragma: no cover - impossible while m <= world_size
            raise RuntimeError("cannot satisfy group sizes")
    assert int(sizes.sum()) == world_size
    return sizes.tolist()


@dataclass(frozen=True)
class SeedAssignment:
    """Per-rank sampler seeds realizing a strategy.

    Attributes
    ----------
    strategy:
        The generating strategy.
    group_of_rank:
        ``group_of_rank[r]`` = seed-group index of rank r.
    seed_of_group:
        Distinct 64-bit seeds, one per group.
    """

    strategy: SeedStrategy
    group_of_rank: np.ndarray
    seed_of_group: np.ndarray

    @property
    def world_size(self) -> int:
        return int(self.group_of_rank.size)

    @property
    def num_groups(self) -> int:
        return int(self.seed_of_group.size)

    def seed_of_rank(self, rank: int) -> int:
        """The sampler seed rank ``r`` uses this training run."""
        return int(self.seed_of_group[self.group_of_rank[rank]])

    def rank_generators(self, step: int = 0) -> list[np.random.Generator]:
        """Per-rank candidate-sampler generators for one training step.

        Ranks in the same group receive generators in the *same state*
        (seeded identically, keyed by step), hence draw identical
        candidate sets — the mechanism that restores inter-GPU overlap.
        """
        return [
            np.random.default_rng((self.seed_of_rank(r), step))
            for r in range(self.world_size)  # mesh-ok: one sampler stream per flat rank by contract
        ]


def assign_seeds(
    strategy: SeedStrategy, world_size: int, base_seed: int = 0
) -> SeedAssignment:
    """Build the rank->seed mapping for a strategy.

    Group seeds are spawned from ``base_seed`` via ``SeedSequence`` so
    distinct groups get statistically independent streams.
    """
    sizes = seed_group_sizes(strategy, world_size)
    group_of_rank = np.repeat(np.arange(len(sizes)), sizes)
    seeds = np.random.SeedSequence(base_seed).generate_state(len(sizes), np.uint64)
    return SeedAssignment(
        strategy=strategy,
        group_of_rank=group_of_rank,
        seed_of_group=seeds,
    )


@lru_cache(maxsize=4096)  # three ints in, one float out; ~25 ms to recompute
def expected_unique_sampled(
    num_groups: int, num_samples: int, vocab_size: int
) -> float:
    """Expected distinct candidate words over ``num_groups`` independent
    log-uniform samples of size S each.

    Under the log-uniform sampler, group g's candidate set has S unique
    ids; across m independent groups the union's expectation is
    ``sum_k 1 - (1 - q_k)^m`` with ``q_k`` = inclusion probability of id
    k in one group's sample.  Used to size the output-embedding exchange
    in the performance model: comm volume follows the union, which the
    seeding technique shrinks from ~G·S toward ~m·S.
    """
    if num_groups <= 0 or num_samples <= 0:
        raise ValueError("num_groups and num_samples must be positive")
    if vocab_size <= 1:
        raise ValueError("vocab_size must exceed 1")
    if num_samples >= vocab_size:
        return float(vocab_size)
    ids = np.arange(vocab_size, dtype=np.float64)
    p = np.log((ids + 2.0) / (ids + 1.0)) / np.log(vocab_size + 1.0)

    # One group's sample is drawn *without* replacement (unique=True), so
    # its inclusion probabilities q_k must sum to exactly S.  Model the
    # rejection sampler as S' effective with-replacement draws and solve
    # for S' such that the expected distinct count equals S.
    def distinct(draws: float) -> np.ndarray:
        return -np.expm1(draws * np.log1p(-p))

    lo, hi = float(num_samples), float(num_samples)
    while distinct(hi).sum() < num_samples - 1e-9:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if distinct(mid).sum() < num_samples:
            lo = mid
        else:
            hi = mid
    q = np.clip(distinct(0.5 * (lo + hi)), 0.0, 1.0 - 1e-15)
    union = -np.expm1(num_groups * np.log1p(-q))
    return float(union.sum())
