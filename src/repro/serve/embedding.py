"""Replica-sharded embedding lookup for decode steps.

Every decode step needs the embedding rows of the active batch's last
tokens.  With the model replicated across the data axis, each rank
*could* gather its shard's rows locally — but the serving story mirrors
the paper's training insight: token traffic is Zipf-skewed, so the
per-step id multiset is heavily duplicated, and the uniqueness dance of
:mod:`repro.core.unique` moves ``Θ(G·K + Ug·D)`` instead of
``Θ(G·K·D)``:

1. allgather the per-rank id vectors (index traffic only, no ``D``);
2. derive the sorted global unique set Î via
   :func:`repro.core.unique.global_unique` — identical on every rank;
3. each rank contributes the embedding rows of *its* contiguous shard
   of Î (``np.array_split`` bounds, deterministic);
4. allgather the row shards — rank order restores ascending Î order;
5. the gathered ids (step 1's result, rank order) find their rows by one
   ``searchsorted`` into Î, and each rank reads its own slice.

The result is bitwise equal to the local gather ``weight[ids]`` (pure
row copies, no arithmetic), so the lookup is invisible to the
differential tokens — it only changes what the ledger and timeline see,
which is the point.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..cluster.communicator import Communicator
from ..core.unique import global_unique

__all__ = ["sharded_embedding_lookup"]


def sharded_embedding_lookup(
    comm: Communicator,
    weight: np.ndarray,
    ids_per_rank: list[np.ndarray],
    tag: str = "decode",
) -> list[np.ndarray]:
    """Gather embedding rows for each rank's token ids, sharded over Î.

    Parameters
    ----------
    comm:
        The simulated communicator; both collectives land on its
        timeline and ledger under the ``serve-embed`` scope.
    weight:
        The replicated ``(V, D)`` embedding matrix.
    ids_per_rank:
        One int64 id vector per rank (index = rank, lengths may differ;
        empty vectors are fine for ranks with no active shard).
    tag:
        Ledger tag suffix distinguishing call sites.

    Returns
    -------
    list[np.ndarray]
        Per-rank ``(K_r, D)`` row matrices, bitwise equal to
        ``weight[ids_per_rank[r]]``.
    """
    if len(ids_per_rank) != comm.world_size:
        raise ValueError(
            f"got {len(ids_per_rank)} id vectors for world size "
            f"{comm.world_size}"
        )
    ids_per_rank = [np.asarray(ids, dtype=np.int64) for ids in ids_per_rank]
    for ids in ids_per_rank:
        if ids.ndim != 1:
            raise ValueError("id vectors must be 1-D")

    world = comm.world_size
    with comm.ledger.scope("serve-embed"):
        # Step 1: index-only gather, Θ(G·K) — raw int64, wire == payload.
        id_payload_bytes = max(ids.nbytes for ids in ids_per_rank)
        all_ids = comm.iallgather(
            ids_per_rank,
            tag=f"serve-ids:{tag}",
            payload_bytes=id_payload_bytes,
        ).wait()[0]

        # Step 2: every rank derives the same sorted global type set.
        global_ids = global_unique(all_ids)

        # Step 3: contiguous Î shards, one per rank (may be empty), on
        # np.array_split's bounds: the first ``extra`` shards hold one more.
        each, extra = divmod(global_ids.size, world)
        bounds = [r * each + min(r, extra) for r in range(world + 1)]
        contributions = [
            weight[global_ids[lo:hi]] for lo, hi in zip(bounds, bounds[1:])
        ]

        # Step 4: gather the row shards; rank-order concat == Î order.
        row_payload_bytes = max(c.nbytes for c in contributions)
        rows = comm.iallgather(
            contributions,
            tag=f"serve-rows:{tag}",
            payload_bytes=row_payload_bytes,
        ).wait()[0]

    # Step 5: one local searchsorted gather over the gathered ids (rank
    # order), split back per rank — pure row copies, bit-exact.
    gathered = rows[np.searchsorted(global_ids, all_ids)]
    ends = accumulate(ids.size for ids in ids_per_rank)
    return [gathered[end - ids.size : end] for ids, end in zip(ids_per_rank, ends)]
