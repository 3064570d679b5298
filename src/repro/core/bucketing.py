"""Gradient bucketing: fuse small dense tensors for allreduce.

Section V-B notes the char LM has >20 tensors, each paying per-tensor
overhead (there for FP16 casts; on real fabrics also per-collective
latency).  The standard remedy — used by Horovod/DDP — is to flatten
many gradients into fixed-size *buckets* and allreduce each bucket once:
latency is paid per bucket instead of per tensor, and casts batch.

:func:`plan_buckets` groups tensors greedily in order (preserving
backward-completion order so overlap remains possible);
:func:`bucketed_allreduce` executes the fused exchange over the
simulated communicator, bucket by bucket (issue + wait);
:func:`ibucketed_allreduce` is the overlapped variant — every bucket is
*issued* as soon as it is formed (the way DDP issues a bucket the
moment backward fills it) and the returned
:class:`PendingBucketedAllreduce` defers all waits, so bucket ``i``'s
collective rides the comm stream while bucket ``i+1`` is still being
flattened.  An ablation bench compares per-tensor vs bucketed latency
on the paper's fabric.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..cluster.communicator import Communicator, WorkHandle
from .compression import WireCodec

__all__ = [
    "Bucket",
    "PendingBucketedAllreduce",
    "bucketed_allreduce",
    "ibucketed_allreduce",
    "plan_buckets",
]


@dataclass(frozen=True)
class Bucket:
    """A contiguous group of tensor indices fused into one collective."""

    tensor_indices: tuple[int, ...]
    nbytes: int


def plan_buckets(tensor_nbytes: Sequence[int], bucket_bytes: int) -> list[Bucket]:
    """Greedy in-order grouping of tensors into <= ``bucket_bytes`` buckets.

    A tensor larger than the bucket size gets a bucket of its own (it is
    never split — splitting buys nothing for a single collective).
    Zero-byte tensors add nothing to a bucket's budget and never force a
    split; an empty input yields an empty plan.
    """
    if bucket_bytes <= 0:
        raise ValueError("bucket_bytes must be positive")
    if any(n < 0 for n in tensor_nbytes):
        raise ValueError("tensor sizes must be non-negative")
    buckets: list[Bucket] = []
    current: list[int] = []
    current_bytes = 0
    for i, n in enumerate(tensor_nbytes):
        if current and current_bytes + n > bucket_bytes:
            buckets.append(Bucket(tuple(current), current_bytes))
            current, current_bytes = [], 0
        current.append(i)
        current_bytes += n
    if current:
        buckets.append(Bucket(tuple(current), current_bytes))
    return buckets


def _validate_structure(
    world: int, per_rank_tensors: Sequence[Sequence[np.ndarray]]
) -> int:
    """Check the per-rank tensor grid agrees; return the tensor count."""
    if len(per_rank_tensors) != world:
        raise ValueError(
            f"got {len(per_rank_tensors)} ranks for world size {world}"
        )
    n_tensors = len(per_rank_tensors[0])
    for r, tensors in enumerate(per_rank_tensors):
        if len(tensors) != n_tensors:
            raise ValueError(
                f"rank {r} has {len(tensors)} tensors, rank 0 has {n_tensors}"
            )
        for i in range(n_tensors):
            ref = per_rank_tensors[0][i]
            if tensors[i].shape != ref.shape or tensors[i].dtype != ref.dtype:
                raise ValueError(f"tensor {i} mismatched on rank {r}")
    return n_tensors


def _issue_bucket(
    comm: Communicator,
    per_rank_tensors: Sequence[Sequence[np.ndarray]],
    bucket: Bucket,
    codec: WireCodec | None,
    tag: str,
) -> WorkHandle:
    """Flatten (and encode) one bucket on every rank; issue its allreduce."""
    flats = []
    for tensors in per_rank_tensors:
        flat = np.concatenate(
            [tensors[i].reshape(-1) for i in bucket.tensor_indices]
        )
        flats.append(codec.encode(flat) if codec is not None else flat)
    return comm.iallreduce(flats, tag=tag)


def _unflatten_bucket(
    reduced: Sequence[np.ndarray],
    per_rank_tensors: Sequence[Sequence[np.ndarray]],
    bucket: Bucket,
    codec: WireCodec | None,
    results: list[list[np.ndarray | None]],
) -> None:
    """Decode one reduced bucket and slice it back into tensor shapes."""
    for rank, tensors in enumerate(per_rank_tensors):
        flat = reduced[rank]
        if codec is not None:
            flat = codec.decode(flat, tensors[0].dtype)
        offset = 0
        for i in bucket.tensor_indices:
            size = tensors[i].size
            results[rank][i] = flat[offset : offset + size].reshape(
                tensors[i].shape
            )
            offset += size


class PendingBucketedAllreduce:
    """All buckets of one fused allreduce, in flight.

    Produced by :func:`ibucketed_allreduce`.  Holds one
    :class:`~repro.cluster.communicator.WorkHandle` per bucket;
    :meth:`wait` completes them in issue order and unflattens the
    reduced buckets back into the original per-rank tensor structure.
    """

    def __init__(
        self,
        per_rank_tensors: Sequence[Sequence[np.ndarray]],
        buckets: list[Bucket],
        handles: list[WorkHandle],
        codec: WireCodec | None,
    ):
        self._tensors = per_rank_tensors
        self._buckets = buckets
        self._handles = handles
        self._codec = codec
        self._result: list[list[np.ndarray]] | None = None

    @property
    def handles(self) -> tuple[WorkHandle, ...]:
        """The per-bucket work handles, in issue order."""
        return tuple(self._handles)

    def is_complete(self) -> bool:
        """Whether every bucket's handle has been awaited."""
        return all(h.is_complete() for h in self._handles)

    def wait(self) -> list[list[np.ndarray]]:
        """Complete every bucket; return per-rank lists of reduced tensors."""
        if self._result is None:
            results = [[None] * len(t) for t in self._tensors]
            for bucket, handle in zip(self._buckets, self._handles):
                _unflatten_bucket(
                    handle.wait(), self._tensors, bucket, self._codec, results
                )
            self._result = results
        return self._result


def ibucketed_allreduce(
    comm: Communicator,
    per_rank_tensors: Sequence[Sequence[np.ndarray]],
    bucket_bytes: int = 4 * 1024 * 1024,
    codec: WireCodec | None = None,
    tag: str = "bucketed",
) -> PendingBucketedAllreduce:
    """Issue a fused allreduce bucket-by-bucket without waiting.

    Each bucket's ``iallreduce`` is issued the moment the bucket is
    flattened (and encoded), so its collective occupies the comm stream
    while later buckets — in a real run, later backward layers — are
    still producing.  All waits are deferred to the returned pending
    object, which also unflattens results back to tensor structure.

    Parameters are as for :func:`bucketed_allreduce`.
    """
    _validate_structure(comm.world_size, per_rank_tensors)
    buckets = plan_buckets(
        [int(t.nbytes) for t in per_rank_tensors[0]], bucket_bytes
    )
    handles = [
        _issue_bucket(comm, per_rank_tensors, bucket, codec, f"{tag}:bucket{b}")
        for b, bucket in enumerate(buckets)
    ]
    return PendingBucketedAllreduce(per_rank_tensors, buckets, handles, codec)


def bucketed_allreduce(
    comm: Communicator,
    per_rank_tensors: Sequence[Sequence[np.ndarray]],
    bucket_bytes: int = 4 * 1024 * 1024,
    codec: WireCodec | None = None,
    tag: str = "bucketed",
) -> list[list[np.ndarray]]:
    """Sum-allreduce a list of tensors per rank, fused into buckets.

    The blocking schedule: each bucket is issued and awaited before the
    next is formed, so at most one bucket's scratch is ever live — the
    exact pre-async behaviour (and memory profile).  Use
    :func:`ibucketed_allreduce` for the overlapped schedule.

    Parameters
    ----------
    per_rank_tensors:
        ``per_rank_tensors[rank][i]`` — tensor ``i`` on ``rank``; shapes
        and dtypes must agree across ranks per index.
    bucket_bytes:
        Fusion threshold (Horovod's default neighbourhood: a few MB).
    codec:
        Optional wire codec applied per bucket (one cast per bucket —
        the batching that removes the paper's per-tensor cast overhead).

    Returns
    -------
    Per-rank lists of reduced tensors, same structure as the input.
    """
    n_tensors = _validate_structure(comm.world_size, per_rank_tensors)
    buckets = plan_buckets(
        [int(t.nbytes) for t in per_rank_tensors[0]], bucket_bytes
    )
    results = [[None] * n_tensors for _ in per_rank_tensors]
    for b, bucket in enumerate(buckets):
        handle = _issue_bucket(
            comm, per_rank_tensors, bucket, codec, f"{tag}:bucket{b}"
        )
        _unflatten_bucket(
            handle.wait(), per_rank_tensors, bucket, codec, results
        )
    return results
