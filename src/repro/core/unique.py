"""The *uniqueness* technique (Section III-A): the paper's core algorithm.

Replaces the baseline Θ(G·K·D) ALLGATHER of dense embedding gradients
with the seven-step scheme of Figure 4:

1. per GPU, find the locally-unique word indices Ĵ of its K tokens;
2. per GPU, locally reduce token gradients into a Ui x D matrix ∆̂;
3. ALLGATHER the K-length *index* vectors J (Θ(G·K) — no D factor);
4. per GPU, filter the gathered G·K indices to the globally-unique,
   totally-ordered set Î (identical on every GPU);
5. per GPU, scatter ∆̂ into a Ug x D matrix M aligned to Î
   (zero-filling rows for types absent locally);
6. ALLREDUCE the M matrices (Θ(Ug·D));
7. apply M̂ to the local embedding via Î — every row unique, so the
   update is scatter-parallel with no write conflicts.

Total: Θ(G·K + Ug·D) memory and communication, where Zipf's law gives
``Ug ∝ (G·K)^0.64``.

All steps are vectorized; the global ordering of Î is ascending word
index, which every GPU derives independently and deterministically.

The exchange runs over whatever rings its communicator has: the whole
world on a flat communicator, or — on a ``comm.axis("data")`` view of a
hybrid mesh — independently inside each data subgroup, every collective
still being one ledger event.  Ring size and link come from the
communicator, so nothing here knows about meshes.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..cluster.communicator import Communicator
from ..nn.parameter import SparseGrad
from .compression import WireCodec
from .wire.policy import WirePolicy
from .wire.transfer import iencoded_allgather

__all__ = [
    "PendingUniqueExchange",
    "StagedValues",
    "UniqueExchangeResult",
    "global_unique",
    "iunique_exchange",
    "local_unique_reduce",
    "unique_exchange",
]


def global_unique(all_indices: np.ndarray) -> np.ndarray:
    """Step 4: the globally-unique, totally-ordered type set Î.

    Every rank derives the same ascending ``int64`` vector from the
    gathered index traffic — the determinism the scatter/searchsorted
    steps (5 and 7) rely on.  Shared by the training-side gradient
    exchange and the serving-side replica-sharded embedding lookup
    (:func:`repro.serve.embedding.sharded_embedding_lookup`), which runs
    the same gather-unique-shard dance over decode-step token ids.
    """
    return np.unique(np.asarray(all_indices, dtype=np.int64))


@dataclass(frozen=True)
class UniqueExchangeResult:
    """Outcome of a unique exchange, identical on every rank of a ring.

    Attributes
    ----------
    global_indices:
        Î — the sorted global type set of this step (Ug entries).
    reduced_values:
        M̂ — the Ug x D allreduced gradient matrix, row i being the
        total gradient of type ``global_indices[i]`` across all ranks.
    local_unique_counts:
        Ui per rank (diagnostics; feeds the Figure-1-style measurements).
    """

    global_indices: np.ndarray
    reduced_values: np.ndarray
    local_unique_counts: tuple[int, ...]

    @property
    def num_global_unique(self) -> int:
        """Ug — the step's global type count."""
        return int(self.global_indices.size)

    def as_sparse_grad(self) -> SparseGrad:
        """Î and M̂ as a gradient — already coalesced: Î is sorted unique."""
        return SparseGrad(
            indices=self.global_indices, values=self.reduced_values
        ).mark_coalesced()


def local_unique_reduce(grad: SparseGrad) -> SparseGrad:
    """Steps 1-2: locally-unique indices + locally-reduced gradients.

    Thin, intention-revealing wrapper over ``SparseGrad.coalesce``:
    returns a gradient whose indices are the rank's *types* (sorted,
    unique) and whose rows accumulate all same-word token gradients.
    """
    return grad.coalesce()


@dataclass(frozen=True)
class StagedValues:
    """Step 6's payload: one exchange's value matrices, sized but unbuilt.

    ``align()`` runs step 5 and returns ``(arrays, blocks, rows)``:
    ``arrays[r]`` is flat rank ``r``'s Ug x D matrix in the wire dtype
    ``dtype``, a view of its ring's ``(ring, Ug, D)`` block ``blocks[i]``
    (rings in ``comm.groups`` order) that is ``+0`` outside the rows
    ``rows[i][m]`` of its member index ``m``.  Whoever allreduces them
    (alone, or packed with other payloads of the step) hands the
    per-rank sums to :attr:`complete`, which decodes them and returns
    the exchange's results.  The matrices are built on demand, so a
    caller packing several allreduces holds only the ones it is
    about to send.

    ``ring_bytes`` and ``logical_bytes`` are each ring's per-rank matrix
    size as sent and before the value codec; ``gather_scratch`` is the
    largest per-rank scratch the step-3 gather charged.
    """

    tag: str
    codec: WireCodec | None
    dtype: np.dtype
    ring_bytes: tuple[int, ...]
    logical_bytes: tuple[int, ...]
    gather_scratch: int
    align: Callable[[], tuple[list, list, list]]
    complete: Callable[[Sequence[np.ndarray]], list]


class PendingUniqueExchange:
    """A unique exchange in flight, staged around its two collectives.

    Created by :func:`iunique_exchange`, which runs steps 1-2 (local
    unique + local reduce) eagerly and *issues* the step-3 index
    ALLGATHER before returning — so the index traffic rides the comm
    stream while the caller does other work (e.g. issuing dense gradient
    buckets).  :meth:`stage` then completes the allgather and runs the
    purely-local step 4, returning the step-6 payload, whose ``align()``
    runs step 5; :meth:`wait` is :meth:`stage`, the value ALLREDUCE of
    that payload on its own, and its completion into
    :class:`UniqueExchangeResult`\\ s.  A caller with other allreduces
    in the same step (the gradient synchronizer) takes the payload from
    :meth:`stage` and may pack it with them.

    The value allreduce cannot be issued earlier: its payload (the
    aligned Ug x D matrices) depends on the gathered indices.  This
    two-stage dependency is exactly why the paper's exchange overlaps
    less perfectly than dense bucketed gradients.
    """

    def __init__(
        self,
        comm: Communicator,
        local: list[SparseGrad],
        index_handle,
        tag: str,
        wire: WirePolicy | None = None,
    ):
        self._comm = comm
        self._local = local
        self._index_handle = index_handle
        self._tag = tag
        self._wire = wire
        self._result: list[UniqueExchangeResult] | None = None

    def stage(self) -> StagedValues:
        """Steps 3 (complete) and 4: the value allreduce's payload.

        Its ``align()`` runs step 5, building the matrices.
        """
        comm = self._comm

        # Step 3 completes: every member of a ring holds the ring's one
        # gathered index vector.
        gathered = self._index_handle.wait()
        dim = self._local[0].dim
        dtype = self._local[0].values.dtype
        # Step 4: global unique filter, totally ordered (ascending).
        uniques = [global_unique(gathered[ranks[0]]) for ranks in comm.groups]
        # The value codec of step 6, if the wire policy resolves one
        # (fixed, or per message under ``auto``) — from the aligned
        # matrix's shape and dtype alone, before any matrix exists.
        codec = (
            None
            if self._wire is None
            else self._wire.resolve_value_codec(
                [np.empty((uniques[0].size, dim), dtype=dtype)], comm
            )
        )
        wire = np.dtype(dtype) if codec is None else codec.wire_dtype(dtype)

        def align() -> tuple[list, list, list]:
            blocks: list[np.ndarray] = []
            held: list[list[np.ndarray]] = []

            def scatter(local: list[SparseGrad], ring: int) -> list:
                # Step 5: local scatter Ĵ -> Î positions, zero-filling
                # missing rows.  All members' scatters run as one
                # vectorized assignment into a stacked (ring, Ug, D)
                # block: per-rank indices are unique, so the fancy
                # assignment writes each (rank, row) cell at most once —
                # value-identical to the per-rank loop.
                global_indices = uniques[ring]
                counts = [g.indices.size for g in local]
                cat_idx = np.concatenate([g.indices for g in local])
                cat_val = (
                    np.concatenate([g.values for g in local])
                    if cat_idx.size
                    else np.zeros((0, dim), dtype=dtype)
                )
                pos = np.searchsorted(global_indices, cat_idx)
                # Every local type must be present globally by
                # construction.
                assert (global_indices[pos] == cat_idx).all()
                if codec is not None:
                    # Value codecs are elementwise with encode(0) == +0,
                    # so encoding the K populated rows once and
                    # scattering them into a zeroed wire-dtype block is,
                    # bit for bit, the per-rank encode of each
                    # zero-padded Ug x D matrix.
                    cat_val = codec.encode(cat_val)
                stacked = np.zeros(
                    (len(local), int(global_indices.size), dim), dtype=wire
                )
                stacked[np.repeat(np.arange(len(local)), counts), pos] = (
                    cat_val
                )
                blocks.append(stacked)
                held.append(np.split(pos, np.cumsum(counts)[:-1]))
                return list(stacked)

            return comm.by_group(self._local, scatter), blocks, held

        def result(ring_reduced: list[np.ndarray], ring: int):
            values = ring_reduced[0]
            if codec is not None:
                values = codec.decode(values, dtype)
            members = comm.groups[ring]
            one = UniqueExchangeResult(
                global_indices=uniques[ring],
                reduced_values=values,
                local_unique_counts=tuple(
                    self._local[r].indices.size for r in members
                ),
            )
            return [one] * len(members)

        def complete(reduced: Sequence[np.ndarray]):
            self._result = comm.by_group(reduced, result)
            return self._result

        return StagedValues(
            tag=f"{self._tag}:values",
            codec=codec,
            dtype=wire,
            ring_bytes=tuple(u.size * dim * wire.itemsize for u in uniques),
            logical_bytes=tuple(
                u.size * dim * dtype.itemsize for u in uniques
            ),
            gather_scratch=self._index_handle.scratch_bytes,
            align=align,
            complete=complete,
        )

    def wait(self) -> list[UniqueExchangeResult]:
        """Finish the exchange: steps 3 (complete) through 6.

        Returns one result per flat rank; the ranks of one ring share
        one object (a flat communicator has a single ring, so every
        entry is the same result).
        """
        if self._result is not None:
            return self._result
        staged = self.stage()
        arrays, blocks, rows = staged.align()
        # Step 6: allreduce the aligned Ug x D matrices in the wire
        # dtype.  They are views of the blocks, populated only where
        # ``rows`` says, so the reduction neither restacks them nor
        # folds their padding.
        reduced = self._comm.iallreduce(
            arrays,
            tag=staged.tag,
            payload_bytes=(
                None if staged.codec is None else max(staged.logical_bytes)
            ),
            stacked=blocks,
            rows=rows,
        ).wait()
        return staged.complete(reduced)


def iunique_exchange(
    comm: Communicator,
    grads: list[SparseGrad],
    tag: str = "embedding",
    wire: WirePolicy | None = None,
) -> PendingUniqueExchange:
    """Start a unique exchange without blocking on its collectives.

    Runs steps 1-2 locally and issues the step-3 index allgather; the
    rest (steps 4-6) runs when :meth:`PendingUniqueExchange.wait` is
    called.  Parameters are as for :func:`unique_exchange`, which is
    ``iunique_exchange(...).wait()[0]``.

    When ``wire`` carries (or adaptively selects) an index codec, the
    step-3 vectors are sorted per rank and shipped as lossless frames
    through :func:`~repro.core.wire.transfer.iencoded_allgather` — the
    step-4 ``np.unique`` is order-insensitive, so pre-sorting is free
    semantically and is exactly what makes consecutive deltas small.
    The ledger then charges the *encoded* bytes for the Θ(G·K) gather
    instead of ``8·K`` per rank.
    """
    if len(grads) != comm.world_size:
        raise ValueError(
            f"got {len(grads)} gradients for world size {comm.world_size}"
        )
    dims = {g.dim for g in grads}
    if len(dims) != 1:
        raise ValueError(f"inconsistent gradient dims across ranks: {dims}")

    # Steps 1-2: local unique + local reduce (per rank, on device).
    local = [local_unique_reduce(g) for g in grads]

    # Step 3 issues: allgather the index vectors as handed in.  The
    # paper gathers token-level J (not Ĵ) — cost Θ(G·K) — so a caller
    # that passes token-level gradients ships exactly that.
    index_vectors = [g.indices.astype(np.int64, copy=False) for g in grads]
    index_codec = (
        None
        if wire is None
        else wire.resolve_index_codec(index_vectors, comm, sorted_payload=True)
    )
    if index_codec is not None:
        index_handle = iencoded_allgather(
            comm,
            [np.sort(v) for v in index_vectors],
            index_codec,
            tag=f"{tag}:indices",
            chunk_bytes=wire.chunk_bytes,
        )
    else:
        index_handle = comm.iallgather(index_vectors, tag=f"{tag}:indices")
    return PendingUniqueExchange(comm, local, index_handle, tag, wire=wire)


def unique_exchange(
    comm: Communicator,
    grads: list[SparseGrad],
    tag: str = "embedding",
    wire: WirePolicy | None = None,
) -> UniqueExchangeResult:
    """Run the full 7-step exchange over per-rank sparse gradients.

    Parameters
    ----------
    comm:
        The simulated communicator (records bytes/time/memory).
    grads:
        Per-rank token-level sparse gradients (index = rank); dims must
        agree across ranks, token counts may differ.
    tag:
        Ledger tag distinguishing input- from output-embedding syncs.
    wire:
        Optional :class:`~repro.core.wire.policy.WirePolicy` governing
        both collectives: its index codec (fixed or adaptively selected)
        compresses the step-3 gather, and its value codec (Section III-C
        compression, e.g. ``WirePolicy.from_spec("fp16")``) encodes the
        aligned value matrices before the ALLREDUCE — summation then
        happens on-wire in the encoded precision, as NCCL's FP16
        allreduce does — and decodes after.

    Returns
    -------
    UniqueExchangeResult
        The globally-reduced update of rank 0's ring — on a flat
        communicator, *the* result, identical for all ranks (a single
        object is returned since the simulator shares memory).

    Notes
    -----
    Step 7 (application) belongs to the optimizer: with unique rows the
    scatter-update is conflict-free.  This blocking form is exactly the
    staged variant with no work between issue and wait, so the two
    paths share one implementation and stay bit-identical.
    """
    return iunique_exchange(comm, grads, tag=tag, wire=wire).wait()[0]
