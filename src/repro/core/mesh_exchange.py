"""Shard layout of the data-axis gradient sync on a hybrid mesh.

On a ``(pipe, tensor, data)`` mesh the paper's data-parallel gradient
synchronization is restricted to the **data** axis: each of the ``d``
data-parallel replicas is spread over ``S = pipe * tensor`` model ranks,
every model rank carries one shard of each gradient, and only the ``d``
ranks sharing a shard index reduce with each other.  The collectives
and the exchange strategies themselves are axis-agnostic — they run on
``comm.axis("data")`` exactly as they run on a flat communicator — so
all that is mesh-specific is this module: how one replica's gradient is
cut into per-rank shards before the data-axis collective, and how the
per-shard results are reassembled (once) afterwards.

``groups`` is always the data-axis view's ``groups``: ``S`` rank tuples
of ``d`` members each, group index = shard index, member index = data
coordinate.  With ``S == 1`` (flat training, or a ``(1, 1, G)`` mesh)
every function is the identity on its input.

**Bit-exactness** (regression-pinned by the composition table): a dense
gradient is cut into ``S`` contiguous pieces, each data subgroup reduces
its piece in the same rank order a flat allreduce uses, and
``concat(array_split(x)) == x`` holds exactly.  A sparse gradient is
cut by contiguous vocabulary row ranges; ranges ascend, so concatenating
the per-range unique exchanges yields the globally sorted unique rows,
and cutting a coalesced gradient by row range commutes with coalescing.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..nn.parameter import SparseGrad

__all__ = ["shard_dense", "shard_sparse", "unshard_dense", "unshard_sparse"]

Groups = Sequence[Sequence[int]]


def _check_replicas(grads: list, groups: Groups) -> None:
    if len(grads) != len(groups[0]):
        raise ValueError(
            f"{len(grads)} replica gradients for a data axis of "
            f"{len(groups[0])}"
        )


def shard_dense(grads: list[np.ndarray], groups: Groups) -> list[np.ndarray]:
    """Per-flat-rank pieces of ``d`` replica gradients (index = data coord)."""
    if len(groups) == 1:
        return grads
    _check_replicas(grads, groups)
    out: list[np.ndarray] = [None] * (len(groups) * len(grads))  # type: ignore[list-item]
    for k, grad in enumerate(grads):
        for ranks, piece in zip(groups, np.array_split(grad.ravel(), len(groups))):
            out[ranks[k]] = piece
    return out


def unshard_dense(
    results: Sequence[np.ndarray], groups: Groups, shape: tuple[int, ...]
) -> np.ndarray:
    """The full reduced gradient from each shard group's (shared) result."""
    if len(groups) == 1:
        return results[0]
    return np.concatenate([results[ranks[0]] for ranks in groups]).reshape(shape)


def shard_sparse(
    grads: list[SparseGrad], groups: Groups, num_rows: int
) -> list[SparseGrad]:
    """Per-flat-rank payloads of ``d`` replica sparse gradients.

    The one place that decides what the exchange ships: with one shard
    the replicas' *token-level* gradients pass through untouched (the
    paper's step 3 gathers the K-length J); with ``S > 1`` each replica
    is locally coalesced and cut into ``S`` contiguous vocabulary row
    ranges, so a model rank ships only its slice of the locally-unique
    Ĵ (pre-attached as its own coalesced form — the strategies' local
    reduce is free).
    """
    num_shards = len(groups)
    if num_shards == 1:
        return grads
    _check_replicas(grads, groups)
    base, extra = divmod(num_rows, num_shards)
    row_cuts = [s * base + min(s, extra) for s in range(num_shards + 1)]
    out: list[SparseGrad] = [None] * (num_shards * len(grads))  # type: ignore[list-item]
    for k, grad in enumerate(grads):
        local = grad.coalesce()  # sorted unique rows: ranges are slices
        cuts = np.searchsorted(local.indices, row_cuts)
        for s, ranks in enumerate(groups):
            rows = slice(cuts[s], cuts[s + 1])
            out[ranks[k]] = SparseGrad._unsafe(
                local.indices[rows], local.values[rows]
            ).mark_coalesced()
    return out


def unshard_sparse(results: Sequence[SparseGrad], groups: Groups) -> SparseGrad:
    """The full exchanged gradient from each shard group's (shared) result.

    Shard ``s`` holds vocabulary rows ``[cut_s, cut_{s+1})`` and the cuts
    ascend, so when every shard's result is coalesced (sorted unique —
    the unique exchange's) their concatenation is too, and is marked so.
    """
    if len(groups) == 1:
        return results[0]
    heads = [results[ranks[0]] for ranks in groups]
    full = SparseGrad._unsafe(
        np.concatenate([h.indices for h in heads]),
        np.concatenate([h.values for h in heads]),
    )
    return full.mark_coalesced() if all(h.is_coalesced for h in heads) else full
