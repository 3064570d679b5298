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

**Bit-exactness** (regression-pinned by the composition table): a run
of dense gradients is cut into ``S`` contiguous pieces of its flat
concatenation, each data subgroup reduces its piece in the same rank
order a flat allreduce uses, and ``concat(array_split(x)) == x`` holds
exactly.  A sparse gradient is
cut by contiguous vocabulary row ranges; ranges ascend, so concatenating
the per-range unique exchanges yields the globally sorted unique rows,
and cutting a coalesced gradient by row range commutes with coalescing.
A strategy that ships token-level rows (the allgather baseline) gets its
range's tokens in arrival order, so each row sums as on a flat world.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..cluster.collectives import FusedRun
from ..nn.parameter import SparseGrad

__all__ = [
    "row_cuts",
    "shard_dense",
    "shard_sparse",
    "unshard_dense",
    "unshard_sparse",
]

Groups = Sequence[Sequence[int]]


def _check_replicas(grads: list, groups: Groups) -> None:
    if len(grads) != len(groups[0]):
        raise ValueError(
            f"{len(grads)} replica gradients for a data axis of "
            f"{len(groups[0])}"
        )


def shard_dense(grads: list[FusedRun], groups: Groups) -> list[FusedRun]:
    """Per-flat-rank pieces of ``d`` replica runs (index = data coord):
    ``np.array_split``'s cuts, as runs of member views (none is copied)."""
    if len(groups) == 1:
        return grads
    _check_replicas(grads, groups)
    base, extra = divmod(grads[0].size, len(groups))
    cuts = [s * base + min(s, extra) for s in range(len(groups) + 1)]
    out: list[FusedRun] = [None] * (len(groups) * len(grads))  # type: ignore[list-item]
    for k, run in enumerate(grads):
        starts = np.cumsum([0] + [m.size for m in run.values()])
        for s, ranks in enumerate(groups):
            out[ranks[k]] = FusedRun(
                (n, m.ravel()[max(cuts[s] - at, 0) : max(cuts[s + 1] - at, 0)])
                for (n, m), at in zip(run.items(), starts)
            )
    return out


def unshard_dense(results: Sequence[np.ndarray], groups: Groups) -> np.ndarray:
    """The flat reduced run from each shard group's (shared) result."""
    if len(groups) == 1:
        return results[0]
    return np.concatenate([results[ranks[0]] for ranks in groups])


def row_cuts(num_rows: int, num_shards: int) -> list[int]:
    """Shard ``s`` holds vocabulary rows ``[cuts[s], cuts[s + 1])``:
    ``np.array_split``'s contiguous, ascending ranges."""
    base, extra = divmod(num_rows, num_shards)
    return [s * base + min(s, extra) for s in range(num_shards + 1)]


def shard_sparse(
    grads: list[SparseGrad], groups: Groups, num_rows: int,
    coalesce: bool = True,
) -> list[SparseGrad]:
    """Per-flat-rank payloads of ``d`` replica sparse gradients.

    The one place that decides what the exchange ships: with one shard
    the replicas' *token-level* gradients pass through untouched (the
    paper's step 3 gathers the K-length J); with ``S > 1`` each replica
    is cut into ``S`` contiguous vocabulary row ranges.  With
    ``coalesce`` (a strategy that reduces locally) each replica is
    coalesced first, so a model rank ships only its slice of the
    locally-unique Ĵ (pre-attached as its own coalesced form — the
    strategies' local reduce is free); without it a model rank ships
    its range's token-level rows in arrival order, so every row sums in
    the order the flat exchange sums it.  One form cannot serve both:
    the unique exchange gathers the indices it is handed, so token rows
    would make a model rank gather J instead of its slice of Ĵ.
    """
    num_shards = len(groups)
    if num_shards == 1:
        return grads
    _check_replicas(grads, groups)
    bounds = row_cuts(num_rows, num_shards)
    out: list[SparseGrad] = [None] * (num_shards * len(grads))  # type: ignore[list-item]
    for k, grad in enumerate(grads):
        if coalesce:
            rows = grad.coalesce()  # sorted unique rows: a range is a slice
            cuts = np.searchsorted(rows.indices, bounds)
            parts = [slice(cuts[s], cuts[s + 1]) for s in range(num_shards)]
        else:
            rows = grad  # token rows in arrival order: a range is a mask
            shard = np.searchsorted(bounds, grad.indices, side="right") - 1
            parts = [shard == s for s in range(num_shards)]
        for ranks, part in zip(groups, parts):
            out[ranks[k]] = SparseGrad._unsafe(
                rows.indices[part], rows.values[part]
            )
            if coalesce:
                out[ranks[k]].mark_coalesced()
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
