"""Gradient synchronization orchestration for the data-parallel ranks.

The trainer holds one model; each data rank's pre-sync gradients are a
row of that model's rank rows (:func:`~repro.nn.batched.rank_grads`).
After each backward pass, :class:`GradientSynchronizer` reduces the
rows of every parameter to one global gradient and lands it on the
parameter:

* parameters with **dense** grads (RNN weights, softmax bias) go through
  a plain ALLREDUCE — what vision models do, as the paper notes;
* parameters with **sparse** grads (input embedding, sampled-softmax
  output embedding) go through the configured
  :class:`~repro.core.sparse_exchange.ExchangeStrategy` — the baseline
  ALLGATHER or the paper's unique exchange.

Gradients are *averaged* over the data-parallel ranks (the global
batch is d x the local batch and each rank computed a mean loss), so
perplexity trajectories are directly comparable across world sizes up
to the LR scaling rule.

There is one driver, over the communicator's **data axis**: ``d``
ranks' gradients, each sharded ``S = world / d`` ways over the model
axes of the mesh.  Every gradient is scattered to its shards
(:mod:`repro.core.mesh_exchange`), exchanged by one data-axis
collective, reassembled once and landed as one result.  Flat
training is the ``S = 1`` case — scatter and reassembly are the
identity and the data axis is the communicator itself — so a flat run,
a ``(1, 1, G)`` mesh and a ``pipe x tensor x data`` mesh execute the
same code, and wire codecs, the fused ring and the sanitizer compose
with all three.

One schedule.  Each maximal run of consecutive dense-only parameters is
one allreduce payload (§V-B: latency per run, not per tensor), and so
is each unique exchange's step-6 value matrix.  Every collective is
issued as soon as its inputs exist, and each is drained before the next
is issued, so one collective is in flight at a time.
**Index gathers go first.**  They need only ids (§III-A), so every
unique exchange's step 3 goes before any backward slice: the raw index
gathers packed into as few allgathers as the step's largest scratch
allows (see :func:`_pack_gathers` and
:func:`~repro.core.unique.igather_indices`), each paying the ring's
``(G-1)α`` latency once, and an encoded gather alone.
Step 3 buys nothing when the vocabulary is small against the batch: if
every raw gather of the step is dearer than its embedding's dense table
(:func:`~repro.core.unique.dense_table_wins`), and the tables pack into
no more allreduces than empty value matrices would, the step *folds*
(:func:`_fold`) — no gather, each exchange's table (its rows plus a
presence column) riding the reduce packs as its value payload, the
same bits landing.  That decision needs only sizes, so it is made here
too.
**Reduce packs follow.**  The step's allreduce payloads go packed, in
registration order, into as few allreduces as the step's own largest
scratch allows (see :func:`_pack`), each paying ``2(G-1)α`` once.  A
pack is issued once the backward slice of every member has been
recorded; the allgather baseline's collectives go at their parameter's
slice.  Backward produces gradients last layer first, so slices are
recorded in reverse registration order, the way DDP fills its buckets
(arXiv 2006.15704).  With no slices (no ``on_issue`` hook) every input
exists at once: the step is one gather stage, then one reduce stage,
each collective drained before the next is built.  Numerics never
depend on the timing — every member of a pack is folded alone — only
the simulated timeline does.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from ..cluster.collectives import FusedRun
from ..cluster.communicator import Communicator
from ..nn.batched import rank_grads
from ..nn.module import Module
from ..nn.parameter import Parameter, SparseGrad
from .compression import WireCodec
from .mesh_exchange import (
    shard_dense,
    shard_sparse,
    unshard_dense,
    unshard_sparse,
)
from .sparse_exchange import AllGatherExchange, ExchangeStrategy
from .unique import IndexGather, StagedValues, igather_indices
from .wire.fused import icompressed_allreduce
from .wire.policy import WirePolicy

__all__ = ["GradientSynchronizer", "concat_token_grads"]


def concat_token_grads(param: Parameter) -> SparseGrad | None:
    """All token-level sparse contributions of one module, un-coalesced.

    The exchange strategies receive *token-level* gradients — the
    baseline gathers all G·K rows verbatim, and the unique path performs
    its own local reduction (step 2) — so coalescing here would skew the
    baseline's measured cost.
    """
    if not param.sparse_grads:
        return None
    if len(param.sparse_grads) == 1:
        s = param.sparse_grads[0]
        out = SparseGrad._unsafe(s.indices, s.values)
        out._coalesced = s._coalesced
        return out
    indices = np.concatenate([s.indices for s in param.sparse_grads])
    values = np.concatenate([s.values for s in param.sparse_grads])
    return SparseGrad(indices=indices, values=values)


#: One dense parameter of a sync step: its landing parameters and its
#: ``(d, ...)`` rank block.
_Rows = tuple[list[Parameter], np.ndarray]


@dataclass
class _Allreduce:
    """One allreduce payload of a sync step, as it would go alone.

    ``build()`` returns the payload: one
    :class:`~repro.cluster.collectives.FusedRun` of rank blocks per
    ring (in the wire dtype ``dtype`` unless the fused ring encodes it).
    A value matrix is built only then, so a step holds the matrices of the
    allreduce it is sending, not all of them.  ``ring_bytes`` and
    ``logical_bytes`` are each ring's per-rank message as sent and
    before the value codec.  ``values`` marks a unique exchange's value
    matrices (else a dense run), and ``charged`` is the largest per-rank
    scratch the payload's own collectives charge — its index gather's
    too, or for a folded table the gather's it replaces; 0 on the fused
    ring, whose hop buffers are not sized here.
    ``finish`` lands the per-rank sums.
    """

    scope: str
    tag: str
    build: Callable[[], list[FusedRun]]
    dtype: np.dtype
    codec: WireCodec | None
    values: bool
    ring_bytes: tuple[int, ...]
    logical_bytes: tuple[int, ...]
    fused: bool
    charged: int
    finish: Callable[[list[np.ndarray]], None]


def _pack(payloads: list[_Allreduce]) -> list[list[_Allreduce]]:
    """One step's allreduce payloads, packed next-fit in their order.

    Packing is what value matrices do: a payload joins the open pack
    only if it or the pack's last payload is a value matrix, so two
    dense runs the walk cut apart (a tied parameter's own dense grad, a
    baseline exchange between them) stay apart.  A pack also closes
    when the next payload differs from it in dtype, value codec or
    transport (the fused ring carries each dense run alone), or when
    adding the payload would take the pack's per-rank bytes past the
    largest scratch any single collective of the step charges.  So
    packing never raises the step's peak footprint, and the cap comes
    from the step itself.
    """
    cap = max((p.charged for p in payloads), default=0)
    packs: list[list[_Allreduce]] = []
    for p in payloads:
        last = packs[-1] if packs else []
        rings = zip(p.ring_bytes, *(q.ring_bytes for q in last))
        if (
            last
            and (p.values or last[-1].values)
            and not (p.fused or last[0].fused)
            and p.dtype == last[0].dtype
            and p.codec == last[0].codec
            and max(map(sum, rings)) <= cap
        ):
            last.append(p)
        else:
            packs.append([p])
    return packs


def _pack_gathers(
    gathers: list[tuple[str, IndexGather]], cap: int
) -> list[list[tuple[str, IndexGather]]]:
    """One step's ``(scope, gather)`` raw index gathers, packed next-fit.

    A gather joins the open pack unless the pack's per-rank scratch
    would pass ``cap`` — the largest scratch among the step's dense
    runs and any single member's gather — so packing never raises the
    step's peak footprint.
    """
    packs: list[list[tuple[str, IndexGather]]] = []
    for member in gathers:
        last = packs[-1] if packs else []
        rings = zip(*(g.ring_scratch for _, g in [*last, member]))
        if last and max(map(sum, rings)) <= cap:
            last.append(member)
        else:
            packs.append([member])
    return packs


def _fold(
    payloads: list[_Allreduce | Callable[[], _Allreduce | None]],
    gathers: list[tuple[str, IndexGather]],
) -> tuple[list, list[tuple[str, IndexGather]]]:
    """The step's reduce stage with every exchange's table folded in.

    Returns ``(payloads, gathers)``: every gather folded, each
    exchange's stager replaced by its table payload and no gather left
    — or, unchanged, the gather schedule.  A table is larger than the
    Ug x D matrix it replaces, so it could push a pack past the cap;
    the fold is kept only when packing the tables takes no more
    allreduces than packing empty matrices in their place.  Next-fit
    never takes fewer packs for larger payloads or a smaller cap, so
    the gather schedule's reduce stage has at least as many.
    """
    for _, g in gathers:
        g.folded = True
    tables = [p if isinstance(p, _Allreduce) else p() for p in payloads]
    empty = [
        t if t is p else replace(t, ring_bytes=(0,) * len(t.ring_bytes))
        for t, p in zip(tables, payloads)
    ]
    if len(_pack(tables)) <= len(_pack(empty)):
        return tables, []
    for _, g in gathers:
        g.folded = False
    return payloads, gathers


class GradientSynchronizer:
    """Synchronize the data-parallel ranks' gradients.

    Parameters
    ----------
    comm:
        The simulated communicator.  Its mesh's ``data`` axis is the
        ring every gradient is exchanged on; a plain ``Communicator(G)``
        is the one-axis ``data=G`` world.
    strategy:
        Sparse-exchange strategy (default: the baseline ALLGATHER, so
        "enable the paper's technique" is an explicit, visible choice).
    wire:
        Optional :class:`~repro.core.wire.policy.WirePolicy`.  Its value
        codec (fixed or adaptively selected per message; a dense run is
        one message) covers the dense allreduces; the sparse strategies
        carry their own reference to the same policy for index and value
        traffic.
    on_issue:
        Optional hook ``f(param_name)`` that records the parameter's
        slice of backward compute on the timeline.  It is called once
        per parameter that syncs, last layer first, after the step's
        index gathers and before any collective that carries the
        parameter's gradient: the "backward produces this layer's
        gradient, then its pack is issued" interleaving.  Without it
        the step is not sliced, and every gradient exists at once.
    fused_reduce:
        Route dense allreduces through the fused compress-reduce ring
        (:func:`~repro.core.wire.fused.icompressed_allreduce`): the
        value codec is applied *inside* the collective, summed in the
        compressed domain, with per-hop wire bytes on the ledger.
        Requires the resolved value codec to be summable (fp16 /
        identity / None); bit-identical numerics to the unfused path
        by construction.  On a mesh the ring runs per data subgroup,
        its hop plan costed on the largest subgroup and the axis link.
    """

    def __init__(
        self,
        comm: Communicator,
        strategy: ExchangeStrategy | None = None,
        on_issue: Callable[[str], None] | None = None,
        wire: WirePolicy | None = None,
        fused_reduce: bool = False,
    ):
        self.comm = comm
        self.strategy = strategy if strategy is not None else AllGatherExchange()
        self.wire = wire
        self.on_issue = on_issue
        self.fused_reduce = fused_reduce

    def _dense(self, run: dict[str, _Rows], tag: str, scope: str) -> _Allreduce:
        """The allreduce payload of one dense run, ready to issue.

        ``run`` maps member names to their landing parameters and their
        ``(d, ...)`` rank blocks; the blocks travel as they are, as the
        one ring's :class:`~repro.cluster.collectives.FusedRun` (on a
        mesh, each shard group's column views of them), folded member
        by member into one flat sum — nothing is staged.  The averaged
        gradient lands as **one array object per member** on every
        landing parameter: the ranks of a synchronous step hold equal
        gradients, so there is one result and whoever applies it reads
        it once.
        """
        data = self.comm.axis("data")
        blocks = FusedRun((name, block) for name, (_, block) in run.items())
        layout = [(b.shape[1:], b[0].size) for b in blocks.values()]
        dtype = blocks.dtype
        payload = shard_dense(blocks, data.groups)
        codec = (
            None
            if self.wire is None
            else self.wire.resolve_value_codec(payload, data)
        )
        logical = tuple(ring.nbytes for ring in payload)
        fused = self.fused_reduce
        if codec is not None and not fused:  # the fused ring encodes
            payload = [ring.map(codec.encode) for ring in payload]
        sizes = tuple(ring.nbytes for ring in payload)

        def finish(sums: list[np.ndarray]) -> None:
            # Each shard group's one shared result is read once.
            reduced = unshard_dense(sums, data.groups)
            if codec is not None and not fused:  # the fused ring decodes
                reduced = codec.decode(reduced, dtype)
            flat, offset = reduced / data.ring_size, 0
            for (targets, _), (shape, size) in zip(run.values(), layout):
                grad = flat[offset : offset + size].reshape(shape)
                offset += size
                for p in targets:
                    p.grad = grad

        return _Allreduce(
            scope=scope,
            tag=tag,
            build=lambda: payload,
            dtype=payload[0].dtype,
            codec=codec,
            values=False,
            ring_bytes=sizes,
            logical_bytes=logical,
            fused=fused,
            charged=0 if fused else max(sizes),
            finish=finish,
        )

    def _values(
        self, targets: list[Parameter], scope: str, staged: StagedValues
    ) -> _Allreduce:
        """The allreduce payload of one exchange's staged value matrices.

        Each ring brings its aligned block as the one member
        ``"{name}:values"`` — apart from a tied parameter's dense member
        of the same name — with its row sets, so the fold skips the
        zero padding.
        """

        def finish(sums: list[np.ndarray]) -> None:
            self._apply_sparse(targets, staged.complete(sums))

        return _Allreduce(
            scope=scope,
            tag=staged.tag,
            build=staged.align,
            dtype=staged.dtype,
            codec=staged.codec,
            values=True,
            ring_bytes=staged.ring_bytes,
            logical_bytes=staged.logical_bytes,
            fused=False,
            charged=max(staged.gather_scratch, *staged.ring_bytes),
            finish=finish,
        )

    def _issue(self, pack: list[_Allreduce]) -> Callable[[], None]:
        """Issue one allreduce of ``pack``'s payloads; return its finisher.

        A lone payload keeps its own tag; a pack is tagged with its
        members' tags joined by ``+``.  Each ring brings the members of
        every payload as one :class:`~repro.cluster.collectives.FusedRun`;
        every member is folded alone, so a packed payload's sum is its
        lone sum, bit for bit.
        """
        data = self.comm.axis("data")
        groups = data.groups
        head = pack[0]
        parts = [p.build() for p in pack]
        if head.fused:  # the fused ring carries one dense run
            handle = icompressed_allreduce(
                data, parts[0], codec=head.codec, tag=head.tag
            )
            return lambda: head.finish(handle.wait())
        payload = parts[0] if len(pack) == 1 else [
            FusedRun(
                (kv for run in runs for kv in run.items()),
                held={k: v for run in runs for k, v in run.held.items()},
            )
            for runs in zip(*parts)
        ]
        handle = data.iallreduce(
            payload,
            tag="+".join(p.tag for p in pack),
            payload_bytes=(
                None
                if head.codec is None
                else max(
                    sum(p.logical_bytes[i] for p in pack)
                    for i in range(len(groups))
                )
            ),
            members=(
                None
                if len(pack) == 1
                else [(p.scope, max(p.ring_bytes)) for p in pack]
            ),
        )

        # Each payload's size in each ring; the built matrices are not
        # kept past the issue.
        sizes = [[run.size for run in part] for part in parts]

        def finish() -> None:
            sums = handle.wait()
            offsets = [0] * len(groups)
            for p, ring_sizes in zip(pack, sizes):
                # This payload's slice of each ring's one shared sum.
                cut = []
                for i, (ranks, size) in enumerate(zip(groups, ring_sizes)):
                    cut.append(sums[ranks[0]][offsets[i] : offsets[i] + size])
                    offsets[i] += size
                p.finish(
                    data.by_group(sums, lambda ring, i: [cut[i]] * len(ring))
                )

        return finish

    def _exchange(
        self,
        targets: list[Parameter],
        grads: list[SparseGrad],
        tag: str,
    ) -> tuple[Callable[[], _Allreduce | None], IndexGather | None]:
        """Start one sparse exchange; return its stager and its gather.

        The stager finishes everything before the exchange's value
        allreduce and returns that allreduce's payload, or — for a
        strategy that ends on no allreduce — completes the exchange,
        applies it and returns None.  A raw index gather is left
        unissued and returned, to be issued (see
        :func:`~repro.core.unique.igather_indices`) before the stager
        runs; otherwise the gather is None.  ``grads`` are the data
        ranks' token-level gradients, in rank order.
        """
        data = self.comm.axis("data")
        num_rows = targets[0].data.shape[0]
        pending = self.strategy.iexchange(
            data,
            shard_sparse(
                grads, data.groups, num_rows,
                coalesce=self.strategy.reduces_locally,
            ),
            tag=tag,
            num_rows=num_rows,
        )

        def stage() -> _Allreduce | None:
            staged = pending.stage()
            if staged is not None:
                return self._values(targets, tag.replace("/", "-"), staged)
            self._apply_sparse(targets, pending.wait())
            return None

        return stage, pending.gather

    def _apply_sparse(
        self, targets: list[Parameter], results: list[SparseGrad]
    ) -> None:
        """Land one exchange's per-rank results on every landing parameter.

        Each receives the same averaged :class:`SparseGrad` object — see
        :meth:`_dense`.  Every rank of a shard group holds the same
        exchanged sum; reassemble once from the group heads and average
        once, over the data ranks.  A coalesced result (the unique
        exchange's) stays marked, so the optimizer does not reduce it a
        second time.
        """
        data = self.comm.axis("data")
        result = unshard_sparse(results, data.groups)
        grad = SparseGrad._unsafe(
            result.indices, result.values / data.ring_size
        )
        if result.is_coalesced:
            grad.mark_coalesced()
        for p in targets:
            p.sparse_grads = [grad]

    @staticmethod
    def _rank_rows(
        name: str, targets: list[Parameter], ring: int
    ) -> tuple[np.ndarray | None, list[SparseGrad] | None]:
        """Every data rank's pre-sync gradients of one parameter.

        Returns the ``(d, ...)`` dense block (or None) and the ``d``
        token-level sparse gradients (or None).  A parameter the batched
        executor ran brings its rank rows
        (:func:`~repro.nn.batched.rank_grads`); any other brings its
        ordinary gradients as one row.
        """
        blocks, tokens = [], []
        for p in targets:
            if p.stacked_grads:
                block, rows = rank_grads(p)
            else:
                block = None if p.grad is None else p.grad[None]
                row = concat_token_grads(p)
                rows = None if row is None else [row]
            blocks.append(block)
            tokens.append(rows)
        dense = sparse = None
        if any(b is not None for b in blocks):
            if any(b is None for b in blocks):
                raise ValueError(f"{name}:dense: rank missing dense grad")
            dense = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        if any(t is not None for t in tokens):
            if any(t is None for t in tokens):
                raise ValueError(f"{name}: rank missing sparse grad")
            sparse = [g for rows in tokens for g in rows]
        for rows in (dense, sparse):
            if rows is not None and len(rows) != ring:
                raise ValueError(
                    f"{name}: {len(rows)} rank rows for a data axis of {ring}"
                )
        return dense, sparse

    def sync_replicas(self, replicas: list[Module]) -> None:
        """Synchronize every parameter of the data-parallel ranks.

        ``replicas`` is either the one model the batched executor ran
        (its parameters hold the ``d`` ranks' rank rows) or ``d``
        structurally identical modules with ordinary gradients, one per
        data coordinate — the thin form, whose gradients are stacked
        into rank rows.  Walks parameters by name; a parameter is
        synced sparse if *any* rank produced sparse grads for it this
        step, dense if any produced dense grads — tied-embedding setups
        can hit both paths for one parameter.

        Each maximal run of consecutive dense-only parameters of one
        dtype, in registration order, is **one** allreduce payload,
        tagged and scoped with its members' names joined by ``+``.  A
        parameter with a sparse exchange ends the run; its own dense
        grad (a tied embedding's) is a run of one.  The unique
        exchange's value matrices are a payload too (tag
        ``"{name}:values"``), staged once the exchange's index gather
        has drained.

        Each synced value lands as **one object** on every module's
        parameter, not as per-module copies: a consumer that scales or
        unscales the result does so once (through any one module), and
        independent optimizers may each read it.

        The step is one schedule, and one collective is in flight at a
        time: each is drained just before the next is issued, the last
        at the end.  The walk, in registration order, runs every
        exchange's local steps (1-2) under its parameter's scope and
        starts each unique exchange — an encoded index gather is issued
        and drained there, a raw one kept.  Then, before the first
        backward slice, the raw gathers either fold (:func:`_fold`: no
        gather, each exchange staging its dense table with a presence
        column as its ``"{name}:values"`` payload) or go packed
        next-fit, in registration order, into as few allgathers as
        :func:`_pack_gathers` allows, tagged with the members' tags and
        scoped with their names, each joined by ``+``.  Then, at each
        parameter's backward slice (``on_issue``, last layer first), the
        allgather baseline's exchange of that parameter runs, and every
        pack of :func:`_pack` whose members' slices have all been
        recorded is issued, in registration order.  Without slices
        there is one such point, after the gather stage: every baseline
        exchange, then every pack.
        """
        ring = self.comm.axis("data").ring_size
        if len(replicas) not in (1, ring):
            raise ValueError(
                f"{len(replicas)} replicas for world size {ring}"
            )
        named = [dict(r.named_parameters()) for r in replicas]
        names = list(named[0])
        if any(list(d) != names for d in named[1:]):
            raise ValueError("replicas are not structurally identical")
        scope = self.comm.timeline.scope
        order: list[str] = []  # the parameters that sync, in walk order
        # The reduce stage, in registration order — payloads, and the
        # stagers of exchanges whose gather rides the gather stage —
        # each with the walk index of the member sliced last.
        payloads: list[_Allreduce | Callable[[], _Allreduce | None]] = []
        gates: list[int] = []
        gathers: list[tuple[str, IndexGather]] = []  # the one gather stage
        # The baseline ships ids and values together: it waits for its
        # parameter's slice.
        baseline: list[tuple[int, str, list[Parameter], list]] = []
        run: dict[str, _Rows] = {}

        def flush() -> None:
            if run:
                label = "+".join(run)
                payloads.append(
                    self._dense(
                        dict(run), f"{label}:dense", label.replace("/", "-")
                    )
                )
                gates.append(order.index(next(iter(run))))
                run.clear()

        for name in names:
            targets = [d[name] for d in named]
            dense, sparse = self._rank_rows(name, targets, ring)
            if dense is None and sparse is None:
                continue
            if sparse is not None or (
                run and next(iter(run.values()))[0][0].dtype != targets[0].dtype
            ):
                flush()
            order.append(name)
            if dense is not None:
                run[name] = (targets, dense)
            if sparse is None:
                continue
            flush()  # a tied parameter's dense grad: a run of one
            if isinstance(self.strategy, AllGatherExchange):
                baseline.append((len(order) - 1, name, targets, sparse))
                continue
            scope_name = name.replace("/", "-")
            with scope(scope_name):
                stage, gather = self._exchange(targets, sparse, name)
                if gather is not None:
                    gathers.append((scope_name, gather))
                    payloads.append(stage)
                else:  # an encoded gather: issued and drained
                    payloads.append(stage())
            gates.append(len(order) - 1)
        flush()
        sliced = self.on_issue is not None

        def point(index: int) -> int:
            """The slice after which the gradient of ``order[index]``
            exists: last layer first; without slices, all at once."""
            return len(order) - 1 - index if sliced else 0

        # The one collective in flight: its finisher, drained (and
        # dropped) before the next collective is issued.
        inflight: list[Callable[[], object]] = []

        def settle() -> None:
            while inflight:
                inflight.pop()()

        if gathers and all(g.table_wins for _, g in gathers):
            payloads, gathers = _fold(payloads, gathers)
        if gathers:
            # The gather stage, capped by the largest scratch of any
            # single collective the step has built so far (its dense
            # runs, an encoded exchange's payload) or would issue alone.
            cap = max(
                [p.charged for p in payloads if isinstance(p, _Allreduce)]
                + [g.scratch_bytes for _, g in gathers]
            )
            for pack in _pack_gathers(gathers, cap):
                settle()
                with scope("+".join(s for s, _ in pack)):
                    members = [g for _, g in pack]
                    igather_indices(
                        self.comm.axis("data"), members, [s for s, _ in pack]
                    )
                inflight.append(members[0].uniques)  # step 4 for all
        # The reduce packs, by the slice they wait for.
        packs: dict[int, list[list[_Allreduce]]] | None = None
        for now in range(len(order) if sliced else 1):
            if sliced:
                self.on_issue(order[-1 - now])
            for index, name, targets, sparse in baseline:
                if point(index) == now:
                    settle()
                    with scope(name.replace("/", "-")):
                        stage, _ = self._exchange(targets, sparse, name)
                        stage()
            if packs is None:
                settle()
                # A unique exchange always stages a value payload.
                payloads = [
                    p if isinstance(p, _Allreduce) else p() for p in payloads
                ]
                packs, first = {}, 0
                for pack in _pack(payloads):
                    last = first + len(pack)
                    packs.setdefault(point(min(gates[first:last])), []).append(
                        pack
                    )
                    first = last
                # Each pack's pre-sync grads and matrices go with it.
                payloads.clear()
            due = packs.pop(now, [])
            while due:
                pack = due.pop(0)
                settle()
                with scope("+".join(p.scope for p in pack)):
                    inflight.append(self._issue(pack))
        settle()
