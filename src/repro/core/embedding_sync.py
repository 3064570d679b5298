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

One loop, two schedules, and one fused allreduce per maximal run of
consecutive dense-only parameters (§V-B: latency per run, not per
tensor).  Blocking (``overlap=False``) is "issue one, drain one": each
collective completes before the next is issued.  ``overlap=True`` is
"issue all, then drain": parameters are walked in reverse registration
order (the order backward produces gradients), every collective is
issued first — dense runs interleaved with the sparse exchanges' first
stage — and only then are the waits drained, so collectives queue up on
the comm stream while later parameters are still being issued.
Numerics are identical either way; only the simulated timeline differs.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..cluster.collectives import FusedRun
from ..cluster.communicator import Communicator
from ..nn.module import Module
from ..nn.parameter import Parameter, SparseGrad
from .compression import encode_stacked
from .mesh_exchange import (
    shard_dense,
    shard_sparse,
    unshard_dense,
    unshard_sparse,
)
from .sparse_exchange import AllGatherExchange, ExchangeStrategy
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
        """Issue one fused allreduce of a dense run; return its finisher.

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
        fused = self.fused_reduce
        if fused:
            handle = icompressed_allreduce(
                data,
                arrays,
                codec=codec,
                tag=tag,
                chunk_bytes=(
                    self.wire.chunk_bytes if self.wire is not None else None
                ),
                stacked=stacked,
            )
        else:
            payload_bytes = None
            if codec is not None:
                payload_bytes = max(
                    arrays[ranks[0]].nbytes for ranks in data.groups
                )
                arrays, stacked = encode_stacked(codec, arrays, stacked)
            handle = data.iallreduce(
                arrays,
                tag=tag,
                payload_bytes=payload_bytes,
                stacked=stacked,
            )

        def finish() -> None:
            # Each shard group's one shared result is read once.
            reduced = unshard_dense(handle.wait(), data.groups)
            if codec is not None and not fused:  # the fused ring decodes
                reduced = codec.decode(reduced, dtype)
            flat, offset = reduced / len(runs), 0
            for params, (shape, size) in zip(run.values(), layout):
                grad = flat[offset : offset + size].reshape(shape)
                offset += size
                for p in params:
                    p.grad = grad

        return finish

    def _issue_sparse(
        self, params: list[Parameter], tag: str
    ) -> Callable[[], None]:
        """Start one sparse exchange; return the finisher that applies it.

        Every replica receives the same post-exchange
        :class:`SparseGrad` object — see :meth:`_issue_dense`.
        """
        data = self.comm.axis("data")
        grads = []
        for p in params:
            g = concat_token_grads(p)
            if g is None:
                raise ValueError(f"{tag}: rank missing sparse grad")
            grads.append(g)
        pending = self.strategy.iexchange(
            data,
            shard_sparse(grads, data.groups, params[0].data.shape[0]),
            tag=tag,
        )

        def finish() -> None:
            # Every rank of a shard group holds the same exchanged sum;
            # reassemble once from the group heads and average once.
            # A coalesced result (the unique exchange's) stays marked,
            # so the optimizer does not reduce it a second time.
            result = unshard_sparse(pending.wait(), data.groups)
            grad = SparseGrad._unsafe(
                result.indices, result.values / len(params)
            )
            if result.is_coalesced:
                grad.mark_coalesced()
            for p in params:
                p.sparse_grads = [grad]

        return finish

    _named_cache: tuple[tuple[int, ...], list[dict], list[str]] | None = None

    def _named_params(
        self, replicas: list[Module], world: int
    ) -> tuple[list[dict], list[str]]:
        """Validate replica structure; return per-rank name->param maps.

        Walking ``named_parameters`` over every replica costs a module
        tree traversal per rank per sync — a real hot path at large G.
        Module structure is fixed after construction, so the walk is
        memoized per replica-identity list.
        """
        cached = self._named_cache
        key = tuple(id(r) for r in replicas)
        if cached is not None and cached[0] == key:
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
        self._named_cache = (key, named, names)
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
        dtype, in walk order, is **one** fused allreduce, tagged and
        scoped with its members' names joined by ``+`` in registration
        order.  A parameter with a sparse exchange ends the run; its own
        dense grad (a tied embedding's) is a run of one.

        Each synced value lands as **one object** on every replica's
        parameter, not as per-replica copies: a consumer that scales or
        unscales the result does so once (through any one replica), and
        independent optimizers may each read it.

        Blocking, each collective is issued and drained under its
        scope before the next is touched.  With ``overlap=True``
        parameters are walked in *reverse* registration order, so dense
        runs and the sparse exchanges' index gathers queue up
        back-to-back the way an eager DDP-style hook would issue them;
        finishers then drain in the same order, the sparse second-stage
        collectives (the value allreduce, which depends on the gathered
        indices) being issued during the drain under the owning
        parameter's scope.
        """
        named, names = self._named_params(
            replicas, self.comm.axis("data").ring_size
        )
        scope = self.comm.timeline.scope
        deferred: list[tuple[str, Callable[[], None]]] = []
        run: dict[str, list[Parameter]] = {}

        def issue(label: str, issuer, members, tag: str) -> None:
            scope_name = label.replace("/", "-")
            with scope(scope_name):
                finish = issuer(members, tag=tag)
                if not self.overlap:
                    finish()
                    return
            deferred.append((scope_name, finish))

        def flush() -> None:
            if run:
                # Laid out and named in registration order on either
                # schedule, so both bill the same scopes.
                members = dict(reversed(run.items()) if self.overlap else run)
                label = "+".join(members)
                issue(label, self._issue_dense, members, f"{label}:dense")
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
                issue(name, self._issue_sparse, params, name)
        flush()
        for scope_name, finish in deferred:
            with scope(scope_name):
                finish()
