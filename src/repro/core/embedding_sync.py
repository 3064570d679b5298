"""Gradient synchronization orchestration for SPMD replicas.

The trainer holds one model replica per simulated rank.  After each
backward pass, :class:`GradientSynchronizer` makes all replicas agree on
one global gradient:

* parameters with **dense** grads (RNN weights, softmax bias) go through
  a plain ALLREDUCE — what vision models do, as the paper notes;
* parameters with **sparse** grads (input embedding, sampled-softmax
  output embedding) go through the configured
  :class:`~repro.core.sparse_exchange.ExchangeStrategy` — the baseline
  ALLGATHER or the paper's unique exchange.

Gradients are *averaged* over the data-parallel replicas (the global
batch is d x the local batch and each replica computed a mean loss), so
perplexity trajectories are directly comparable across world sizes up
to the LR scaling rule.

There is one driver, over the communicator's **data axis**: ``d``
replicas, each sharded ``S = world / d`` ways over the model axes of the
mesh.  Every gradient is scattered to its shards
(:mod:`repro.core.mesh_exchange`), exchanged by one data-axis
collective, reassembled once and fanned out to the replicas.  Flat
training is the ``S = 1`` case — scatter and reassembly are the
identity and the data axis is the communicator itself — so a flat run,
a ``(1, 1, G)`` mesh and a ``pipe x tensor x data`` mesh execute the
same code, and wire codecs, the fused ring and the sanitizer compose
with all three.

One loop, two schedules.  Each maximal run of consecutive dense-only
parameters is one allreduce payload (§V-B: latency per run, not per
tensor), and so is each unique exchange's step-6 value matrix.
Blocking (``overlap=False``) is "issue one, drain one", in two stages:
**one gather stage**, then **one reduce stage**.  The unique exchanges'
raw index gathers go first, packed into as few allgathers as the step's
largest scratch allows (see :func:`_pack_gathers` and
:func:`~repro.core.unique.igather_indices`), each paying the ring's
``(G-1)α`` latency once; then the step's allreduce payloads go packed,
in registration order, into as few allreduces as the step's own largest
scratch allows (see :func:`_pack`), each paying ``2(G-1)α`` once.
Step 3 buys nothing when the vocabulary is small against the batch: if
every raw gather of the step is dearer than its embedding's dense table
(:func:`~repro.core.unique.dense_table_wins`), and the tables pack into
no more allreduces than empty value matrices would, the step *folds*
(:func:`_fold`) — no gather stage, each exchange's table (its rows plus
a presence column) riding the reduce stage as its value payload, the
same bits landing.
``overlap=True`` is "issue all, then drain": parameters are walked in
reverse registration order (the order backward produces gradients),
every collective whose payload exists is issued first — dense runs
interleaved with the sparse exchanges' index gathers — and only then
are the waits drained, each value matrix being issued alone as its
gather drains, so collectives queue up on the comm stream while later
parameters are still being issued.  Packing would hold a dense run back
until a gather drained, so the overlapped schedule issues each payload
alone.  Numerics are identical either way — every member of a pack is
folded alone — only the simulated timeline differs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from ..cluster.collectives import FusedRun
from ..cluster.communicator import Communicator
from ..nn.module import Module
from ..nn.parameter import Parameter, SparseGrad
from .compression import WireCodec, encode_stacked
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
    """All token-level sparse contributions of one rank, un-coalesced.

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


@dataclass
class _Allreduce:
    """One allreduce payload of a sync step, as it would go alone.

    ``build()`` returns ``(arrays, stacked, rows)``: one
    :class:`~repro.cluster.collectives.FusedRun` per flat rank (in the
    wire dtype ``dtype`` unless the fused ring encodes it) and, per
    ring, the member blocks and row sets the fold may use.  A value
    matrix is built only then, so a step holds the matrices of the
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
    build: Callable[[], tuple[list[FusedRun], list[dict], list[dict]]]
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
    """Synchronize gradients across data-parallel model replicas.

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
    overlap:
        Use the issue-all-then-drain schedule in :meth:`sync_replicas`
        (see module docstring).  Off by default: the blocking schedule
        is the bit-exact reference, including its ledger event order.
    on_issue:
        Optional hook ``f(param_name)`` called as the overlapped schedule
        reaches each parameter, before any collective it starts or ends.
        The trainer uses it to record that parameter's slice of backward
        compute on the timeline — the "backward produces this layer's
        gradient, then its run is issued" interleaving.  Ignored on the
        blocking schedule.
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
        overlap: bool = False,
        on_issue: Callable[[str], None] | None = None,
        wire: WirePolicy | None = None,
        fused_reduce: bool = False,
    ):
        self.comm = comm
        self.strategy = strategy if strategy is not None else AllGatherExchange()
        self.wire = wire
        self.overlap = overlap
        self.on_issue = on_issue
        self.fused_reduce = fused_reduce

    def _issue_dense(
        self, run: dict[str, list[Parameter]], tag: str
    ) -> Callable[[], None]:
        """Issue one dense run's allreduce alone; return its finisher."""
        return self._issue([self._dense(run, tag, tag)])

    def _issue_sparse(
        self, params: list[Parameter], tag: str
    ) -> Callable[[], None]:
        """Start one sparse exchange; return the finisher that applies it.

        The finisher issues the exchange's value allreduce (if it has
        one) alone, as soon as the index gather has drained.
        """
        stage, _ = self._exchange(params, tag)

        def finish() -> None:
            values = stage()
            if values is not None:
                self._issue([values])()

        return finish

    def _dense(
        self, run: dict[str, list[Parameter]], tag: str, scope: str
    ) -> _Allreduce:
        """The allreduce payload of one dense run, ready to issue.

        ``run`` maps member names to their replicas' parameters; each
        replica's grads travel as one
        :class:`~repro.cluster.collectives.FusedRun`, folded member by
        member into one flat sum — nothing is staged.  The averaged
        gradient lands as **one array object per member on every
        replica**: the ranks of a synchronous step hold equal gradients,
        so there is one result and whoever applies it reads it once.
        """
        data = self.comm.axis("data")
        grads: dict[str, list[np.ndarray]] = {}
        blocks: dict[str, np.ndarray] = {}
        for name, params in run.items():
            if any(p.grad is None for p in params):
                raise ValueError(f"{name}:dense: rank missing dense grad")
            grads[name] = [p.grad for p in params]
            # The batched executor marks rank 0's parameter with the
            # block whose rank-order rows are the grads; taken, not read,
            # so nothing keeps it alive past the sync.  An accumulated
            # ``old + new`` grad no longer aliases it.  Bit-identical
            # either way; with it the fold skips restacking G views.
            block, params[0]._grad_block = params[0]._grad_block, None
            if (
                block is not None
                and block.shape == (len(params),) + params[0].grad.shape
                and all(g.base is block for g in grads[name])
            ):
                blocks[name] = block
        runs = [FusedRun(zip(grads, row)) for row in zip(*grads.values())]
        layout = [(m.shape, m.size) for m in runs[0].values()]
        dtype = runs[0].dtype
        arrays = shard_dense(runs, data.groups)
        stacked = blocks if blocks and arrays is runs else None
        codec = (
            None
            if self.wire is None
            else self.wire.resolve_value_codec(arrays, data)
        )
        logical = tuple(arrays[ranks[0]].nbytes for ranks in data.groups)
        fused = self.fused_reduce
        if codec is not None and not fused:  # the fused ring encodes
            arrays, stacked = encode_stacked(codec, arrays, stacked)
        sizes = tuple(arrays[ranks[0]].nbytes for ranks in data.groups)

        def finish(sums: list[np.ndarray]) -> None:
            # Each shard group's one shared result is read once.
            reduced = unshard_dense(sums, data.groups)
            if codec is not None and not fused:  # the fused ring decodes
                reduced = codec.decode(reduced, dtype)
            flat, offset = reduced / len(runs), 0
            for params, (shape, size) in zip(run.values(), layout):
                grad = flat[offset : offset + size].reshape(shape)
                offset += size
                for p in params:
                    p.grad = grad

        rings = len(data.groups)
        return _Allreduce(
            scope=scope,
            tag=tag,
            build=lambda: (arrays, [stacked or {}] * rings, [{}] * rings),
            dtype=arrays[0].dtype,
            codec=codec,
            values=False,
            ring_bytes=sizes,
            logical_bytes=logical,
            fused=fused,
            charged=0 if fused else max(sizes),
            finish=finish,
        )

    def _values(
        self, params: list[Parameter], scope: str, staged: StagedValues
    ) -> _Allreduce:
        """The allreduce payload of one exchange's staged value matrices.

        Each rank brings its aligned matrix as the one member
        ``"{name}:values"`` — apart from a tied parameter's dense member
        of the same name — with its ring's block and row sets, so the
        fold restacks nothing and skips the zero padding.
        """
        data = self.comm.axis("data")
        key = staged.tag
        shapes: list[tuple[int, ...]] = []

        def build() -> tuple[list[FusedRun], list[dict], list[dict]]:
            arrays, blocks, rows = staged.align()
            shapes.extend(b.shape[1:] for b in blocks)
            return (
                [FusedRun({key: a}) for a in arrays],
                [{key: b} for b in blocks],
                [{key: r} for r in rows],
            )

        def finish(sums: list[np.ndarray]) -> None:
            self._apply_sparse(
                params,
                staged.complete(
                    data.by_group(
                        sums,
                        lambda ring, i: [ring[0].reshape(shapes[i])]
                        * len(ring),
                    )
                ),
            )

        return _Allreduce(
            scope=scope,
            tag=key,
            build=build,
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
        members' tags joined by ``+``.  Ranks bring the members of every
        payload as one :class:`~repro.cluster.collectives.FusedRun`, each
        ring's blocks and row sets as dicts; every member is folded
        alone, so a packed payload's sum is its lone sum, bit for bit.
        """
        data = self.comm.axis("data")
        groups = data.groups
        head = pack[0]
        parts = [p.build() for p in pack]
        if head.fused:  # the fused ring carries one dense run
            (arrays, stacked, _), = parts
            handle = icompressed_allreduce(
                data,
                arrays,
                codec=head.codec,
                tag=head.tag,
                chunk_bytes=(
                    self.wire.chunk_bytes if self.wire is not None else None
                ),
                stacked=stacked[0] or None,
            )
            return lambda: head.finish(handle.wait())
        if len(pack) == 1:
            (arrays, stacked, rows), = parts
        else:
            arrays = [
                FusedRun(kv for run in runs for kv in run.items())
                for runs in zip(*(a for a, _, _ in parts))
            ]
            stacked = [
                {k: v for _, s, _ in parts for k, v in s[i].items()}
                for i in range(len(groups))
            ]
            rows = [
                {k: v for _, _, r in parts for k, v in r[i].items()}
                for i in range(len(groups))
            ]
        handle = data.iallreduce(
            arrays,
            tag="+".join(p.tag for p in pack),
            payload_bytes=(
                None
                if head.codec is None
                else max(
                    sum(p.logical_bytes[i] for p in pack)
                    for i in range(len(groups))
                )
            ),
            stacked=stacked,
            rows=rows,
            members=(
                None
                if len(pack) == 1
                else [(p.scope, max(p.ring_bytes)) for p in pack]
            ),
        )

        # Each payload's size in each ring; the built matrices are not
        # kept past the issue.
        sizes = [[a[ranks[0]].size for ranks in groups] for a, _, _ in parts]

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
        self, params: list[Parameter], tag: str, own_gather: bool = False
    ) -> tuple[Callable[[], _Allreduce | None], IndexGather | None]:
        """Start one sparse exchange; return its stager and its gather.

        The stager finishes everything before the exchange's value
        allreduce and returns that allreduce's payload, or — for a
        strategy that ends on no allreduce — completes the exchange,
        applies it and returns None.  With ``own_gather`` a raw index
        gather is left unissued and returned, to be issued (see
        :func:`~repro.core.unique.igather_indices`) before the stager
        runs; otherwise the gather is None.
        """
        data = self.comm.axis("data")
        grads = []
        for p in params:
            g = concat_token_grads(p)
            if g is None:
                raise ValueError(f"{tag}: rank missing sparse grad")
            grads.append(g)
        num_rows = params[0].data.shape[0]
        pending = self.strategy.iexchange(
            data,
            shard_sparse(
                grads, data.groups, num_rows,
                coalesce=self.strategy.reduces_locally,
            ),
            tag=tag,
            num_rows=num_rows if own_gather else None,
        )

        def stage() -> _Allreduce | None:
            staged = pending.stage()
            if staged is not None:
                return self._values(params, tag.replace("/", "-"), staged)
            self._apply_sparse(params, pending.wait())
            return None

        return stage, pending.gather

    def _apply_sparse(
        self, params: list[Parameter], results: list[SparseGrad]
    ) -> None:
        """Land one exchange's per-rank results on every replica.

        Every replica receives the same averaged :class:`SparseGrad`
        object — see :meth:`_dense`.  Every rank of a shard group holds
        the same exchanged sum; reassemble once from the group heads
        and average once.  A coalesced result (the unique exchange's)
        stays marked, so the optimizer does not reduce it a second time.
        """
        result = unshard_sparse(results, self.comm.axis("data").groups)
        grad = SparseGrad._unsafe(result.indices, result.values / len(params))
        if result.is_coalesced:
            grad.mark_coalesced()
        for p in params:
            p.sparse_grads = [grad]

    _named_cache: tuple[tuple[Module, ...], list[dict], list[str]] | None = None

    def _named_params(
        self, replicas: list[Module], world: int
    ) -> tuple[list[dict], list[str]]:
        """Validate replica structure; return per-rank name->param maps.

        Walking ``named_parameters`` over every replica costs a module
        tree traversal per rank per sync — a real hot path at large G.
        Module structure is fixed after construction, so the walk is
        memoized per replica list.  The memo holds the modules and
        matches them by identity: an ``id`` alone may be reused by a
        new module once the old one is freed.
        """
        cached = self._named_cache
        if (
            cached is not None
            and len(cached[0]) == len(replicas)
            and all(a is b for a, b in zip(cached[0], replicas))
        ):
            return cached[1], cached[2]
        if len(replicas) != world:
            raise ValueError(
                f"{len(replicas)} replicas for world size {world}"
            )
        named = [dict(r.named_parameters()) for r in replicas]
        names = list(named[0].keys())
        for d in named[1:]:
            if list(d.keys()) != names:
                raise ValueError("replicas are not structurally identical")
        self._named_cache = (tuple(replicas), named, names)
        return named, names

    def sync_replicas(self, replicas: list[Module]) -> None:
        """Synchronize every parameter of the data-parallel replicas.

        ``replicas`` holds one model per data coordinate (one per rank
        on a flat world).  Walks parameters by name (replicas are
        structurally identical); a parameter is synced sparse if *any*
        replica produced sparse grads for it this step, dense if any
        produced dense grads — tied-embedding setups can hit both paths
        for one parameter.

        Each maximal run of consecutive dense-only parameters of one
        dtype, in walk order, is **one** allreduce payload, tagged and
        scoped with its members' names joined by ``+`` in registration
        order.  A parameter with a sparse exchange ends the run; its own
        dense grad (a tied embedding's) is a run of one.  The unique
        exchange's value matrices are a payload too (tag
        ``"{name}:values"``), staged once the exchange's index gather
        has drained.

        Each synced value lands as **one object** on every replica's
        parameter, not as per-replica copies: a consumer that scales or
        unscales the result does so once (through any one replica), and
        independent optimizers may each read it.

        Blocking, the step is **one gather stage, then one reduce
        stage**.  The walk runs every exchange's local steps (1-2) under
        its parameter's scope; then the unique exchanges' raw index
        gathers go packed next-fit, in registration order, into as few
        allgathers as :func:`_pack_gathers` allows — tagged with the
        members' tags and scoped with their names, each joined by ``+``
        — each issued and drained before the next.  Each exchange then
        stages its value payload, and the step's allreduce payloads go
        packed in registration order, next-fit, into as few allreduces
        as :func:`_pack` allows, each issued and drained before the
        next.  An encoded index gather, and the allgather baseline's
        collectives, are issued and drained alone during the walk.
        When every raw gather's table wins and the tables take no more
        packs than empty matrices would (:func:`_fold`), the gathers
        are folded instead of issued: there is no gather stage, and
        each exchange stages its dense table with a presence column as
        its ``"{name}:values"`` payload.

        With ``overlap=True`` parameters are walked in *reverse*
        registration order and each allreduce is issued alone as soon
        as its payload exists, so dense runs and the sparse exchanges'
        index gathers queue up back-to-back the way an eager DDP-style
        hook would issue them;
        finishers then drain in the same order, each value allreduce
        (which depends on the gathered indices) being issued during the
        drain under the owning parameter's scope.
        """
        named, names = self._named_params(
            replicas, self.comm.axis("data").ring_size
        )
        scope = self.comm.timeline.scope
        deferred: list[tuple[str, Callable[[], None]]] = []
        # Blocking: the one reduce stage, in walk order — payloads, and
        # the stagers of exchanges whose gather rides the gather stage.
        payloads: list[_Allreduce | Callable[[], _Allreduce | None]] = []
        gathers: list[tuple[str, IndexGather]] = []  # the one gather stage
        run: dict[str, list[Parameter]] = {}

        def flush() -> None:
            if run:
                # Laid out and named in registration order on either
                # schedule, so both bill the same scopes.
                members = dict(reversed(run.items()) if self.overlap else run)
                label = "+".join(members)
                scope_name = label.replace("/", "-")
                if self.overlap:
                    with scope(scope_name):
                        finish = self._issue_dense(members, f"{label}:dense")
                    deferred.append((scope_name, finish))
                else:
                    payloads.append(
                        self._dense(members, f"{label}:dense", scope_name)
                    )
                run.clear()

        for name in reversed(names) if self.overlap else names:
            params = [d[name] for d in named]
            dense = any(p.grad is not None for p in params)
            sparse = any(p.sparse_grads for p in params)
            if not (dense or sparse):
                continue
            if sparse or (
                run and next(iter(run.values()))[0].dtype != params[0].dtype
            ):
                flush()
            if self.overlap and self.on_issue is not None:
                self.on_issue(name)
            if dense:
                run[name] = params
            if sparse:
                flush()  # a tied parameter's dense grad: a run of one
                scope_name = name.replace("/", "-")
                with scope(scope_name):
                    if self.overlap:
                        finish = self._issue_sparse(params, name)
                        deferred.append((scope_name, finish))
                    else:
                        stage, gather = self._exchange(
                            params, name, own_gather=True
                        )
                        if gather is not None:
                            gathers.append((scope_name, gather))
                            payloads.append(stage)
                        elif (values := stage()) is not None:
                            payloads.append(values)
        flush()
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
                with scope("+".join(s for s, _ in pack)):
                    members = [g for _, g in pack]
                    igather_indices(
                        self.comm.axis("data"), members, [s for s, _ in pack]
                    )
                    members[0].uniques()  # drains it: step 4 for all
            # A unique exchange always stages a value payload.
            payloads = [
                p if isinstance(p, _Allreduce) else p() for p in payloads
            ]
        # Popped as they go, so each pack's pre-sync grads and matrices
        # are freed before the next pack's are built.
        packs = _pack(payloads)
        payloads.clear()
        while packs:
            pack = packs.pop(0)
            with scope("+".join(p.scope for p in pack)):
                self._issue(pack)()
        for scope_name, finish in deferred:
            with scope(scope_name):
                finish()
