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

Steps 3-4 buy something only while the vocabulary is large against the
batch.  When a ring's whole ``rows x (D + 1)`` table — all ``V`` rows
on a flat world, its shard's row range on a hybrid mesh — costs no
more on the wire than step 3's index gather (:func:`dense_table_wins`)
on every ring, a caller that
owns the gather may skip it: the exchange's step-6 payload is then the
dense table, each rank's rows scattered into it beside a presence
column, and Î is read off the reduced presence column — the same
result, bit for bit, with one collective fewer.

The exchange runs over whatever rings its communicator has: the whole
world on a flat communicator, or — on a ``comm.axis("data")`` view of a
hybrid mesh — independently inside each data subgroup, every collective
still being one ledger event.  Ring size and link come from the
communicator; ring ``s`` of ``S`` holds the rows
:func:`~repro.core.mesh_exchange.row_cuts` gives shard ``s``, which is
all a dense table needs to know about meshes.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..cluster.collectives import (
    FusedRun,
    allgather_wire_bytes,
    allreduce_wire_bytes,
)
from ..cluster.communicator import Communicator
from ..nn.parameter import SparseGrad
from .compression import WireCodec
from .mesh_exchange import row_cuts
from .wire.policy import WirePolicy
from .wire.transfer import iencoded_allgather

__all__ = [
    "IndexGather",
    "PendingUniqueExchange",
    "StagedValues",
    "UniqueExchangeResult",
    "dense_table_wins",
    "global_unique",
    "igather_indices",
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


def dense_table_wins(
    ring: int, rows: int, dim: int, itemsize: int, vector_bytes: Sequence[int]
) -> bool:
    """Whether one ring's dense table is no dearer than its index gather.

    The table is the ring's ``rows x (dim + 1)`` gradient with a
    presence column — the rows its shard holds, the whole embedding on a
    flat world — in ``itemsize``-byte words; ``vector_bytes`` are
    the ring's raw step-3 index vectors, one per rank.  It wins when its
    allreduce moves no more bytes per rank than the gather,
    ``(ring - 1) * max_r 8·K_r``, and its message is no larger than the
    gather's scratch ``sum_r 8·K_r``.  With equal ``K_r`` the first
    inequality implies the second (the message is then at most half the
    scratch); the second keeps uneven ranks from raising a step's peak.
    Integer arithmetic on sizes known before any collective.
    """
    table = rows * (dim + 1) * itemsize
    return table <= sum(vector_bytes) and allreduce_wire_bytes(
        ring, table
    ) <= allgather_wire_bytes(ring, max(vector_bytes))


@dataclass(frozen=True)
class StagedValues:
    """Step 6's payload: one exchange's value matrices, sized but unbuilt.

    ``align()`` runs step 5 and returns the allreduce payload: per ring
    (in ``comm.groups`` order) one
    :class:`~repro.cluster.collectives.FusedRun` whose one member
    ``tag`` is the ring's ``(ring, Ug, D)`` block in the wire dtype
    ``dtype`` — row ``m`` the Ug x D matrix of member rank ``m``, ``+0``
    outside the rows its ``held`` row sets name.  A folded exchange's
    matrix is instead its ring's dense ``rows x (D + 1)`` table, the
    last column counting the ranks that hold each row.  Whoever
    allreduces them (alone, or packed with other payloads of the step)
    hands the per-rank flat sums to :attr:`complete`, which decodes
    them and returns the exchange's results.  The matrices are built on
    demand, so a caller packing several allreduces holds only the ones
    it is about to send.

    ``ring_bytes`` and ``logical_bytes`` are each ring's per-rank matrix
    size as sent and before the value codec; ``gather_scratch`` is the
    largest per-rank scratch the step-3 gather charges alone (or would
    have, for a folded exchange, which issues none).
    """

    tag: str
    codec: WireCodec | None
    dtype: np.dtype
    ring_bytes: tuple[int, ...]
    logical_bytes: tuple[int, ...]
    gather_scratch: int
    align: Callable[[], list[FusedRun]]
    complete: Callable[[Sequence[np.ndarray]], list]


class IndexGather:
    """Step 3 of one unique exchange: its index vectors, to be gathered.

    ``vectors[r]`` is flat rank ``r``'s ``int64`` index vector, and
    ``num_rows`` bounds its ids (the embedding's row count; only a
    packed gather reads it).  :func:`igather_indices` issues any number
    of these as one allgather; :meth:`uniques` then completes it and
    runs step 4.  ``scratch_bytes`` is the largest per-rank scratch the
    exchange's gather charges when it goes alone, and ``ring_scratch``
    that scratch per ring (a packed gather charges, per ring, the sum
    of its members').

    ``table_wins`` says the exchange's dense table is no dearer than
    this gather on any ring (:func:`dense_table_wins`) and its values
    carry no codec.  A caller that owns such a gather may fold it
    instead of issuing it — set ``folded`` — and the exchange then
    stages its table (see :class:`PendingUniqueExchange`).
    """

    table_wins: bool = False
    folded: bool = False

    def __init__(
        self,
        comm: Communicator,
        vectors: list[np.ndarray],
        tag: str,
        num_rows: int | None = None,
    ):
        self.tag = f"{tag}:indices"
        self.vectors = vectors
        self.num_rows = num_rows
        self.ring_scratch = tuple(
            sum([int(vectors[r].nbytes) for r in ranks])
            for ranks in comm.groups
        )
        self.scratch_bytes = max(self.ring_scratch)
        self._complete: Callable[[], None] | None = None
        self._uniques: list[np.ndarray] = []

    @property
    def issued(self) -> bool:
        """Whether a collective carrying this gather has been issued."""
        return self._complete is not None

    def uniques(self) -> list[np.ndarray]:
        """Steps 3 (complete) and 4: Î per ring, in ``comm.groups`` order."""
        if not self._uniques:
            if not self.issued:
                raise RuntimeError(f"{self.tag}: gather was never issued")
            self._complete()
        return self._uniques


def _land(
    comm: Communicator, gathers: Sequence[IndexGather], handle, offsets
) -> None:
    """Make ``handle``'s completion hand each of ``gathers`` its Î.

    ``handle.wait()`` yields each ring's gathered vector, member ``m``'s
    ids offset by ``offsets[m]``; the members' id ranges are disjoint
    and ascend, so one :func:`global_unique` per ring, cut at the
    offsets, is every member's own step 4, bit for bit.  The completer
    holds the members' result lists, not the members, so no reference
    cycle keeps a step's gathers alive past it.
    """
    results = [g._uniques for g in gathers]

    def complete() -> None:
        gathered = handle.wait()
        for ranks in comm.groups:
            u = global_unique(gathered[ranks[0]])
            cuts = np.searchsorted(u, offsets[1:])
            for out, off, part in zip(results, offsets, np.split(u, cuts)):
                out.append(part - off if off else part)

    for g in gathers:
        g._complete = complete


def igather_indices(
    comm: Communicator,
    gathers: Sequence[IndexGather],
    labels: Sequence[str] | None = None,
) -> None:
    """Issue step 3 of one or more unique exchanges as one allgather.

    Each rank brings its members' vectors concatenated in order, member
    ``m``'s ids offset by the row counts of the members before it, and
    the collective is tagged with the members' tags joined by ``+``.
    The wire model is the raw allgather's: a packed gather moves
    ``(ring - 1) * max_r sum_m 8 K_{m,r}`` bytes per rank — never more
    than its members' lone gathers together — and pays the ring's
    latency once.  A lone member is gathered as it is, under its own
    tag.  Complete it through any member's :meth:`IndexGather.uniques`.
    ``labels`` name the scopes the members' shares of a packed gather's
    bytes are credited to
    (:meth:`~repro.cluster.tracing.CostLedger.bytes_by_scope`).
    """
    offsets = [0]
    for g in gathers[:-1]:
        offsets.append(offsets[-1] + g.num_rows)
    if len(gathers) == 1:
        vectors = gathers[0].vectors
    else:
        vectors = [
            np.concatenate(
                [g.vectors[r] + off for g, off in zip(gathers, offsets)]
            )
            for r in range(comm.world_size)
        ]
    handle = comm.iallgather(
        vectors,
        tag="+".join(g.tag for g in gathers),
        members=(
            None
            if labels is None or len(gathers) == 1
            else [
                (label, g.scratch_bytes) for label, g in zip(labels, gathers)
            ]
        ),
    )
    _land(comm, gathers, handle, offsets)


class PendingUniqueExchange:
    """A unique exchange in flight, staged around its two collectives.

    Created by :func:`iunique_exchange`, which runs steps 1-2 (local
    unique + local reduce) eagerly and, unless its caller owns the
    gather, *issues* the step-3 index ALLGATHER before returning — so
    the index traffic rides the comm stream while the caller does other
    work (e.g. issuing dense gradient buckets).  A caller that owns the
    gather (the gradient synchronizer, whose index gathers all go
    before its reduce packs) takes :attr:`gather` and issues it
    with the step's other exchanges' as one allgather
    (:func:`igather_indices`).  :meth:`stage` then
    completes the allgather and runs the purely-local step 4, returning
    the step-6 payload, whose ``align()`` runs step 5; :meth:`wait` is
    :meth:`stage`, the value ALLREDUCE of that payload on its own, and
    its completion into :class:`UniqueExchangeResult`\\ s.  A caller
    with other allreduces in the same step (the gradient synchronizer)
    takes the payload from :meth:`stage` and may pack it with them.

    A caller that owns a raw gather whose table wins may fold it
    (:attr:`IndexGather.folded`) instead of issuing it: no index traffic
    is sent, and :meth:`stage` returns the dense-table payload at once.
    Its ``align()`` scatters each rank's locally reduced rows into a
    zeroed ``(ring, V, D + 1)`` block whose last column is 1 at the
    rank's rows, with the same row sets, so every row sums the same
    contributors in the same rank order as the Ug x D matrices would;
    after the allreduce Î is the reduced presence column's non-zero
    rows — ascending, as :func:`global_unique` orders it — and the
    values are those rows of the table.  On a hybrid mesh ring ``s``
    holds only its shard's rows ``[cut_s, cut_{s+1})``
    (:func:`~repro.core.mesh_exchange.row_cuts`): its table has those
    rows, ids enter it less ``cut_s`` and Î leaves it plus ``cut_s``.

    The value allreduce cannot be issued earlier: its payload (the
    aligned Ug x D matrices) depends on the gathered indices.  This
    two-stage dependency is exactly why the paper's exchange overlaps
    less perfectly than dense bucketed gradients.
    """

    def __init__(
        self,
        comm: Communicator,
        local: list[SparseGrad],
        gather: IndexGather,
        tag: str,
        wire: WirePolicy | None = None,
    ):
        self._comm = comm
        self._local = local
        #: The step-3 gather: issued, or left for the caller to issue
        #: or to fold.
        self.gather = gather
        self._tag = tag
        self._wire = wire
        self._result: list[UniqueExchangeResult] | None = None

    def stage(self) -> StagedValues:
        """Steps 3 (complete) and 4: the value allreduce's payload.

        Its ``align()`` runs step 5, building the matrices.
        """
        if self.gather.folded:
            return self._stage_table()
        comm = self._comm

        # Steps 3 (complete) and 4: per ring, the global unique filter
        # of the one gathered index vector, totally ordered (ascending).
        uniques = self.gather.uniques()
        dim = self._local[0].dim
        dtype = self._local[0].values.dtype
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

        tag = f"{self._tag}:values"

        def align() -> list[FusedRun]:
            payload = []
            for ring, ranks in enumerate(comm.groups):
                # Step 5: local scatter Ĵ -> Î positions, zero-filling
                # missing rows.  All members' scatters run as one
                # vectorized assignment into a stacked (ring, Ug, D)
                # block: per-rank indices are unique, so the fancy
                # assignment writes each (rank, row) cell at most once —
                # value-identical to the per-rank loop.
                local = [self._local[r] for r in ranks]
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
                block = np.zeros(
                    (len(local), int(global_indices.size), dim), dtype=wire
                )
                block[np.repeat(np.arange(len(local)), counts), pos] = cat_val
                held = np.split(pos, np.cumsum(counts)[:-1])
                payload.append(FusedRun({tag: block}, held={tag: held}))
            return payload

        def result(ring_reduced: list[np.ndarray], ring: int):
            values = ring_reduced[0].reshape(-1, dim)
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
            tag=tag,
            codec=codec,
            dtype=wire,
            ring_bytes=tuple(u.size * dim * wire.itemsize for u in uniques),
            logical_bytes=tuple(
                u.size * dim * dtype.itemsize for u in uniques
            ),
            gather_scratch=self.gather.scratch_bytes,
            align=align,
            complete=complete,
        )

    def _stage_table(self) -> StagedValues:
        """The folded exchange's payload: its dense table, unbuilt."""
        if not self.gather.table_wins:
            raise RuntimeError(f"{self._tag}: its table does not win")
        comm = self._comm
        cuts = row_cuts(self.gather.num_rows, len(comm.groups))
        dim = self._local[0].dim
        dtype = np.dtype(self._local[0].values.dtype)

        tag = f"{self._tag}:values"

        def align() -> list[FusedRun]:
            payload = []
            for ring, ranks in enumerate(comm.groups):
                # Step 5 against the ring's whole row range: each rank's
                # sorted unique Ĵ are its populated rows, so its values
                # land as they would in the Ug x D matrix, and its
                # presence column is 1 there.
                local = [self._local[r] for r in ranks]
                cut = cuts[ring]
                counts = [g.indices.size for g in local]
                member = np.repeat(np.arange(len(local)), counts)
                cat_idx = np.concatenate([g.indices for g in local]) - cut
                table = np.zeros(
                    (len(local), cuts[ring + 1] - cut, dim + 1), dtype=dtype
                )
                if cat_idx.size:
                    table[member, cat_idx, :dim] = np.concatenate(
                        [g.values for g in local]
                    )
                table[member, cat_idx, dim] = 1
                held = [g.indices - cut for g in local]
                payload.append(FusedRun({tag: table}, held={tag: held}))
            return payload

        def result(ring_reduced: list[np.ndarray], ring: int):
            table = ring_reduced[0].reshape(-1, dim + 1)
            present = np.flatnonzero(table[:, dim]).astype(np.int64)
            members = comm.groups[ring]
            one = UniqueExchangeResult(
                global_indices=present + cuts[ring],
                reduced_values=table[present, :dim],
                local_unique_counts=tuple(
                    self._local[r].indices.size for r in members
                ),
            )
            return [one] * len(members)

        def complete(reduced: Sequence[np.ndarray]):
            self._result = comm.by_group(reduced, result)
            return self._result

        nbytes = tuple(
            (hi - lo) * (dim + 1) * dtype.itemsize
            for lo, hi in zip(cuts, cuts[1:])
        )
        return StagedValues(
            tag=tag,
            codec=None,
            dtype=dtype,
            ring_bytes=nbytes,
            logical_bytes=nbytes,
            gather_scratch=self.gather.scratch_bytes,
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
        # Step 6: allreduce the aligned Ug x D matrices in the wire
        # dtype, each ring's as its one block, populated only where its
        # row sets say, so the fold skips the padding.
        reduced = self._comm.iallreduce(
            staged.align(),
            tag=staged.tag,
            payload_bytes=(
                None if staged.codec is None else max(staged.logical_bytes)
            ),
        ).wait()
        return staged.complete(reduced)


def iunique_exchange(
    comm: Communicator,
    grads: list[SparseGrad],
    tag: str = "embedding",
    wire: WirePolicy | None = None,
    num_rows: int | None = None,
) -> PendingUniqueExchange:
    """Start a unique exchange without blocking on its collectives.

    Runs steps 1-2 locally and issues the step-3 index allgather; the
    rest (steps 4-6) runs when :meth:`PendingUniqueExchange.wait` is
    called.  Parameters are as for :func:`unique_exchange`, which is
    ``iunique_exchange(...).wait()[0]``.

    ``num_rows`` (the embedding's row count, which bounds every index;
    on ``S`` rings, ring ``s`` holds shard ``s``'s row range, as
    :func:`~repro.core.mesh_exchange.shard_sparse` cuts it) hands the
    raw gather to the caller: it is left unissued as the
    pending exchange's :attr:`~PendingUniqueExchange.gather`, for the
    caller to issue through :func:`igather_indices` — alone or packed
    with other exchanges' — before it stages the values.  The gradient
    synchronizer so issues one gather stage before any reduce pack.
    When the values carry no codec and the dense table
    is no dearer than the gather on every ring (:func:`dense_table_wins`)
    the gather's ``table_wins`` is set, and the caller may fold it
    instead of issuing it.

    When ``wire`` carries (or adaptively selects) an index codec, the
    step-3 vectors are sorted per rank and shipped as lossless frames
    through :func:`~repro.core.wire.transfer.iencoded_allgather` — the
    step-4 ``np.unique`` is order-insensitive, so pre-sorting is free
    semantically and is exactly what makes consecutive deltas small.
    The ledger then charges the *encoded* bytes for the Θ(G·K) gather
    instead of ``8·K`` per rank.  An encoded gather is always issued
    here, alone.
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

    # Step 3: allgather the index vectors as handed in.  The paper
    # gathers token-level J (not Ĵ) — cost Θ(G·K) — so a caller that
    # passes token-level gradients ships exactly that.
    index_vectors = [g.indices.astype(np.int64, copy=False) for g in grads]
    gather = IndexGather(comm, index_vectors, tag, num_rows)
    index_codec = (
        None
        if wire is None
        else wire.resolve_index_codec(index_vectors, comm, sorted_payload=True)
    )
    if index_codec is not None:
        handle = iencoded_allgather(
            comm,
            [np.sort(v) for v in index_vectors],
            index_codec,
            tag=gather.tag,
        )
        gather.scratch_bytes = handle.scratch_bytes
        _land(comm, [gather], handle, [0])
    elif num_rows is None:
        igather_indices(comm, [gather])
    raw_values = wire is None or (
        wire.value_codec is None and wire.selector is None
    )
    if index_codec is None and num_rows is not None and raw_values:
        # Ring ``s`` holds its shard's rows only (one ring: all of them);
        # ids outside that range keep the gather, which takes any id.
        cuts = row_cuts(num_rows, len(comm.groups))
        gather.table_wins = all(
            dense_table_wins(
                len(ranks), cuts[s + 1] - cuts[s], local[0].dim,
                local[0].values.dtype.itemsize,
                [index_vectors[r].nbytes for r in ranks],
            )
            and (
                len(comm.groups) == 1
                or all(
                    cuts[s] <= v.min() and v.max() < cuts[s + 1]
                    for v in (index_vectors[r] for r in ranks)
                    if v.size
                )
            )
            for s, ranks in enumerate(comm.groups)
        )
    return PendingUniqueExchange(comm, local, gather, tag, wire=wire)


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
