"""Data-parallel batching: shard a token stream across simulated GPUs.

Terminology follows the paper (Section II-B): each GPU processes a
*local batch* of ``K`` tokens per step, arranged as ``K/c`` sequences of
length ``c``.  With ``G`` GPUs the *global batch* is ``G*K`` tokens —
the ``N`` whose type count ``U`` drives every complexity bound.

Sharding is contiguous per rank (rank r gets the r-th slice of the
stream), matching how data-parallel input pipelines partition a corpus;
each rank then walks its shard in standard truncated-BPTT layout:
``sequences_per_rank`` parallel streams advancing ``seq_len`` tokens a
step, targets shifted by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BatchSpec", "Batch", "ShardedBatcher", "make_eval_batches"]


@dataclass(frozen=True)
class BatchSpec:
    """Shape of each rank's per-step input.

    ``local_batch_tokens`` (the paper's ``K``) =
    ``sequences_per_rank * seq_len``.
    """

    sequences_per_rank: int
    seq_len: int

    def __post_init__(self) -> None:
        if self.sequences_per_rank <= 0:
            raise ValueError("sequences_per_rank must be positive")
        if self.seq_len <= 0:
            raise ValueError("seq_len must be positive")

    @property
    def local_batch_tokens(self) -> int:
        return self.sequences_per_rank * self.seq_len

    def global_batch_tokens(self, world_size: int) -> int:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        return self.local_batch_tokens * world_size


@dataclass(frozen=True)
class Batch:
    """One rank's step input: ``inputs[i, t]`` predicts ``targets[i, t]``."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.shape != self.targets.shape:
            raise ValueError("inputs and targets must share a shape")
        if self.inputs.ndim != 2:
            raise ValueError("batches are 2-D: (sequences, seq_len)")

    @property
    def n_tokens(self) -> int:
        return int(self.inputs.size)


class ShardedBatcher:
    """Deterministic per-rank batch iterator over a shared token stream.

    Parameters
    ----------
    tokens:
        The full training stream (1-D int array).
    spec:
        Per-rank batch shape.
    world_size:
        Number of simulated ranks.

    Notes
    -----
    Each rank's shard is reshaped into ``sequences_per_rank`` parallel
    streams.  ``steps_per_epoch`` is the number of full BPTT windows the
    shortest stream supports; the epoch's token coverage is
    ``steps_per_epoch * global_batch``.
    """

    def __init__(
        self,
        tokens: np.ndarray,
        spec: BatchSpec,
        world_size: int,
        shuffle_seed: int | None = None,
    ):
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ValueError("tokens must be 1-D")
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        self.spec = spec
        self.world_size = world_size
        self.shuffle_seed = shuffle_seed

        shard_len = tokens.size // world_size
        self._stream_len = shard_len // spec.sequences_per_rank
        # One extra token is needed for the final target shift.
        self.steps_per_epoch = (self._stream_len - 1) // spec.seq_len
        if self.steps_per_epoch <= 0:
            raise ValueError(
                f"stream of {tokens.size} tokens too short for "
                f"{world_size} ranks x {spec.sequences_per_rank} seqs x "
                f"seq_len {spec.seq_len}"
            )
        # The corpus is cut into world * sequences_per_rank contiguous
        # segments; an epoch permutation (when shuffling) reassigns which
        # segment feeds which parallel stream — every rank derives the
        # same permutation, keeping the SPMD step deterministic.
        n_segments = world_size * spec.sequences_per_rank
        self._segments = tokens[: n_segments * self._stream_len].reshape(
            n_segments, self._stream_len
        )
        self.set_epoch(0)

    def set_epoch(self, epoch: int) -> None:
        """Select the epoch's segment->stream assignment.

        With ``shuffle_seed`` unset the assignment is the identity every
        epoch (fully deterministic streams, as the paper's pipelines);
        otherwise a permutation seeded by ``(shuffle_seed, epoch)``
        reshuffles which corpus segment each parallel stream reads.
        """
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        n_segments = self._segments.shape[0]
        if self.shuffle_seed is None:
            order = np.arange(n_segments)
        else:
            order = np.random.default_rng(
                (self.shuffle_seed, epoch)
            ).permutation(n_segments)
        per_rank = self.spec.sequences_per_rank
        self._streams = [
            self._segments[order[r * per_rank : (r + 1) * per_rank]]
            for r in range(self.world_size)
        ]

    def batch(self, rank: int, step: int) -> Batch:
        """The ``step``-th batch of ``rank`` (both zero-based)."""
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range")
        if not 0 <= step < self.steps_per_epoch:
            raise ValueError(
                f"step {step} out of range (epoch has {self.steps_per_epoch})"
            )
        s = self.spec.seq_len
        window = self._streams[rank][:, step * s : step * s + s + 1]
        return Batch(inputs=window[:, :-1].copy(), targets=window[:, 1:].copy())

    def step_batches(self, step: int) -> list[Batch]:
        """All ranks' batches for one step, index = rank."""
        return [self.batch(r, step) for r in range(self.world_size)]


def make_eval_batches(
    tokens: np.ndarray, spec: BatchSpec, max_batches: int | None = None
) -> list[Batch]:
    """Single-stream evaluation batches over a validation split."""
    batcher = ShardedBatcher(tokens, spec, world_size=1)
    n = batcher.steps_per_epoch
    if max_batches is not None:
        if max_batches <= 0:
            raise ValueError("max_batches must be positive")
        n = min(n, max_batches)
    return [batcher.batch(0, i) for i in range(n)]
