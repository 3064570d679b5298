"""Collective communication algorithms and their cost models.

Two halves live here:

1. **Functional semantics** — pure functions computing what each rank
   holds after a collective, given the per-rank input arrays.  These are
   *numerically real*: the training stack's gradients flow through them,
   so accuracy results are genuine, not simulated.

2. **Cost models** — the standard alpha-beta (latency-bandwidth) costs
   of the bandwidth-optimal algorithms used by efficient MPI/NCCL
   implementations.  The paper cites Baidu's ring allreduce [31]; we
   model ring variants for every collective and recursive doubling as a
   comparison point (used by an ablation bench).

Cost-model conventions: ``G`` ranks, message of ``n`` bytes *per rank*
(for allgather/reduce-scatter, ``n`` is each rank's contribution), link
``beta`` = unidirectional bandwidth (bytes/s), ``alpha`` = per-hop
latency (s).

The cost and wire-byte models are pure functions of hashable arguments
(:class:`~repro.cluster.interconnect.LinkSpec` is frozen), and a training
step at large ``G`` evaluates them with the *same* (world, nbytes, link)
key on every collective — so they are all memoized with ``lru_cache``.
Invalid inputs still raise on every call (``lru_cache`` does not cache
exceptions).

=================  =====================================================
Collective         Ring cost (time)
=================  =====================================================
allreduce          ``2 (G-1)/G * n / beta  +  2 (G-1) alpha``
reduce-scatter     ``(G-1)/G * n / beta  +  (G-1) alpha``
allgather          ``(G-1) * n / beta  +  (G-1) alpha``
=================  =====================================================
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .interconnect import LinkSpec

__all__ = [
    "allreduce_arrays",
    "allgather_arrays",
    "reduce_scatter_arrays",
    "ring_allreduce_time",
    "ring_allgather_time",
    "ring_reduce_scatter_time",
    "recursive_doubling_allreduce_time",
    "allreduce_wire_bytes",
    "allgather_wire_bytes",
    "reduce_scatter_wire_bytes",
]


# ---------------------------------------------------------------------------
# Functional semantics
# ---------------------------------------------------------------------------

def _check_uniform(arrays: Sequence[np.ndarray], op: str) -> None:
    if len(arrays) == 0:
        raise ValueError(f"{op}: need at least one rank")
    shape, dtype = arrays[0].shape, arrays[0].dtype
    for rank, arr in enumerate(arrays):
        if arr.shape != shape:
            raise ValueError(
                f"{op}: rank {rank} has shape {arr.shape}, rank 0 has {shape}"
            )
        if arr.dtype != dtype:
            raise ValueError(
                f"{op}: rank {rank} has dtype {arr.dtype}, rank 0 has {dtype}"
            )


#: The rank-order fold walks populated rows only once that skips this
#: many ``x + (+0)`` elements per member (``(Ug - mean K) * D`` of a
#: unique exchange's ``(R, Ug, D)`` block).  Dense vs restricted ms in
#: float64 (``repro_bench_sim_fold_ms``): 1.1 k skipped (char LM, R=512)
#: 0.18 vs 1.9; 8.9 k (R=64) 0.23 vs 0.31; 49 k (word_flat) 1.05 vs 0.8;
#: 205 k (word_wire) 4.1 vs 1.5 — and 42 vs 7.5 on that block in
#: float16, whose adds numpy runs in software.
RESTRICTED_FOLD_MIN_SKIPPED = 32768


def allreduce_arrays(
    arrays: Sequence[np.ndarray],
    stacked: np.ndarray | None = None,
    rows: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Sum-allreduce: every rank receives the elementwise sum of all inputs.

    The reduction is performed in rank order, which is deterministic —
    matching NCCL's behaviour of a fixed reduction order along the ring.
    The sum is identical on every rank, so every rank receives the *same*
    array object, read-only (``writeable=False``): a caller that writes
    to it fails loudly instead of corrupting the other ranks' results.

    ``stacked`` lets a caller that already holds the per-rank inputs as
    rows of one contiguous ``(world, ...)`` block (the batched executor's
    gradient blocks, the unique exchange's scatter matrix) skip the
    ``np.stack`` of ``world`` views — the dominant Python-side cost of a
    large-G allreduce.  The caller asserts ``arrays[r] is stacked[r]``
    row-for-row; reduction bits are identical either way because
    ``np.stack(arrays)`` would reproduce exactly this block.

    ``rows`` (with ``stacked``) is the further assertion that member
    ``m`` is ``+0`` everywhere outside its leading-axis rows
    ``rows[m]`` (sorted, unique) — the zero-padded matrices of the
    unique exchange.  The same rank-order fold may then skip the
    ``x + (+0)`` steps; the result is bit-identical (see
    :func:`_restricted_fold`), only cheaper on sparse blocks.
    """
    _check_uniform(arrays, "allreduce")
    # Accumulate in the input dtype to mirror on-wire reduction precision.
    # np.add.reduce over a stacked leading axis accumulates element-wise
    # in index order — bit-identical to the sequential rank-order fold —
    # except for size-1 arrays, where the reduction axis is contiguous
    # and numpy switches to pairwise summation; keep the explicit fold
    # for that case.
    if len(arrays) > 2 and arrays[0].size > 1:
        if stacked is None:
            stacked = np.stack(arrays)
        elif stacked.shape != (len(arrays),) + arrays[0].shape:
            raise ValueError(
                f"allreduce: stacked block shape {stacked.shape} does not "
                f"match {len(arrays)} ranks of {arrays[0].shape}"
            )
        if rows is not None and len(rows) != len(arrays):
            raise ValueError(
                f"allreduce: {len(rows)} row sets for {len(arrays)} ranks"
            )
        if rows is not None and (
            (stacked.shape[1] - sum(r.size for r in rows) / len(rows))
            * stacked[0, 0].size
        ) >= RESTRICTED_FOLD_MIN_SKIPPED:
            total = _restricted_fold(stacked, rows)
        else:
            total = np.add.reduce(stacked, axis=0)
    else:
        total = arrays[0].copy()
        for arr in arrays[1:]:
            total += arr
    return _shared(total, len(arrays))


def _restricted_fold(
    stacked: np.ndarray, rows: Sequence[np.ndarray]
) -> np.ndarray:
    """``np.add.reduce(stacked, axis=0)`` over each member's populated rows.

    The dense fold adds ``+0`` wherever a member holds nothing, and
    ``x + (+0) == x`` for every ``x`` except ``-0.0`` (which becomes
    ``+0.0``); a zero's sign never changes a later non-zero sum.  So
    skipping those steps can only leave a ``-0.0`` where the dense fold
    ends on ``+0.0`` — and only on rows some member skipped, where one
    ``+ 0`` pass at the end restores exactly the dense result.  Member 0
    enters through ``np.add.reduce`` itself: numpy seeds that fold with
    the first addend or with ``+0`` by version, which differ on ``-0.0``.
    """
    total = np.add.reduce(stacked[:1], axis=0)
    for member in range(1, len(rows)):
        held = rows[member]
        total[held] += stacked[member, held]
    skipped = np.bincount(
        np.concatenate(rows), minlength=total.shape[0]
    ) < len(rows)
    np.add(
        total, 0, out=total,
        where=skipped.reshape((-1,) + (1,) * (total.ndim - 1)),
    )
    return total


def _shared(result: np.ndarray, world: int) -> list[np.ndarray]:
    """One read-only result object for each of ``world`` ranks."""
    result.flags.writeable = False
    return [result] * world


def allgather_arrays(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Allgather: every rank receives the rank-order concatenation.

    Per-rank contributions must agree in dtype and trailing dimensions but
    may differ in leading length (an allgatherv), which the uniqueness
    algorithm relies on when ranks hold different numbers of local types.
    Every rank receives the same read-only object, as for
    :func:`allreduce_arrays`.
    """
    if len(arrays) == 0:
        raise ValueError("allgather: need at least one rank")
    dtype = arrays[0].dtype
    trailing = arrays[0].shape[1:]
    for rank, arr in enumerate(arrays):
        if arr.dtype != dtype:
            raise ValueError(
                f"allgather: rank {rank} dtype {arr.dtype} != rank 0 {dtype}"
            )
        if arr.shape[1:] != trailing:
            raise ValueError(
                f"allgather: rank {rank} trailing dims {arr.shape[1:]} != "
                f"rank 0 {trailing}"
            )
    gathered = np.concatenate([np.atleast_1d(a) for a in arrays], axis=0)
    return _shared(gathered, len(arrays))


def reduce_scatter_arrays(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Sum-reduce then scatter equal shards back, one per rank.

    The leading dimension must divide evenly by the number of ranks.
    """
    _check_uniform(arrays, "reduce_scatter")
    world = len(arrays)
    n = arrays[0].shape[0]
    if n % world != 0:
        raise ValueError(
            f"reduce_scatter: leading dim {n} not divisible by world size {world}"
        )
    total = arrays[0].copy()
    for arr in arrays[1:]:
        total += arr
    shard = n // world
    return [total[r * shard : (r + 1) * shard].copy() for r in range(world)]


# ---------------------------------------------------------------------------
# Wire-byte accounting (per rank, one direction)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def allreduce_wire_bytes(world: int, nbytes: int) -> int:
    """Bytes each rank sends during a ring allreduce of an n-byte buffer."""
    _check_world(world)
    if world == 1:
        return 0
    return math.ceil(2 * (world - 1) / world * nbytes)


@lru_cache(maxsize=4096)
def allgather_wire_bytes(world: int, nbytes_per_rank: int) -> int:
    """Bytes each rank sends during a ring allgather (its shard, G-1 times)."""
    _check_world(world)
    return (world - 1) * nbytes_per_rank


@lru_cache(maxsize=4096)
def reduce_scatter_wire_bytes(world: int, nbytes: int) -> int:
    """Bytes each rank sends during a ring reduce-scatter of an n-byte buffer."""
    _check_world(world)
    if world == 1:
        return 0
    return math.ceil((world - 1) / world * nbytes)


def _check_world(world: int) -> None:
    if world <= 0:
        raise ValueError(f"world size must be positive, got {world}")


# ---------------------------------------------------------------------------
# Time models
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def ring_allreduce_time(world: int, nbytes: int, link: LinkSpec) -> float:
    """Ring allreduce: reduce-scatter pass + allgather pass.

    Bandwidth term ``2 (G-1)/G * n / beta`` is the classic
    bandwidth-optimal bound; latency term is ``2 (G-1) alpha`` hops.
    """
    _check_world(world)
    if world == 1:
        return 0.0
    bw_term = 2 * (world - 1) / world * nbytes / link.bandwidth
    lat_term = 2 * (world - 1) * link.latency
    return bw_term + lat_term


@lru_cache(maxsize=4096)
def ring_allgather_time(world: int, nbytes_per_rank: int, link: LinkSpec) -> float:
    """Ring allgather of ``nbytes_per_rank`` from each rank: G-1 shard hops."""
    _check_world(world)
    if world == 1:
        return 0.0
    bw_term = (world - 1) * nbytes_per_rank / link.bandwidth
    lat_term = (world - 1) * link.latency
    return bw_term + lat_term


@lru_cache(maxsize=4096)
def ring_reduce_scatter_time(world: int, nbytes: int, link: LinkSpec) -> float:
    """Ring reduce-scatter of an n-byte buffer: half of a ring allreduce."""
    _check_world(world)
    if world == 1:
        return 0.0
    bw_term = (world - 1) / world * nbytes / link.bandwidth
    lat_term = (world - 1) * link.latency
    return bw_term + lat_term


@lru_cache(maxsize=4096)
def recursive_doubling_allreduce_time(
    world: int, nbytes: int, link: LinkSpec
) -> float:
    """Recursive-doubling allreduce: ``log2 G`` rounds, full buffer each round.

    Latency-optimal but not bandwidth-optimal; provided as the comparison
    point for the collectives ablation bench (small messages favour it,
    the paper's large embedding gradients favour the ring).
    """
    _check_world(world)
    if world == 1:
        return 0.0
    rounds = math.ceil(math.log2(world))
    return rounds * (link.latency + nbytes / link.bandwidth)
