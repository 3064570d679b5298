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
same code, and wire codecs, the fused ring, the sanitizer and the
lockstep verifier compose with all three.

One loop, two schedules.  Blocking (``overlap=False``) is "issue one,
drain one": each parameter's collective completes before the next is
touched — the exact pre-async behaviour.  ``overlap=True`` is "issue
all, then drain": parameters are walked in reverse registration order
(the order backward produces gradients), every collective is issued
first — dense allreduces interleaved with the sparse exchanges' first
stage — and only then are the waits drained, so collectives queue up on
the comm stream while later parameters are still being issued.
Numerics are identical either way; only the simulated timeline differs.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

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
        codec (fixed or adaptively selected per message) covers the
        dense allreduces; the sparse strategies carry their own
        reference to the same policy for index and value traffic.
    overlap:
        Use the issue-all-then-drain schedule in :meth:`sync_replicas`
        (see module docstring).  Off by default: the blocking schedule
        is the bit-exact reference, including its ledger event order.
    on_issue:
        Optional hook ``f(param_name)`` called immediately *before* each
        parameter's collectives are issued on the overlapped schedule.
        The trainer uses it to record that parameter's slice of backward
        compute on the timeline — the "backward produces this layer's
        gradient, then its bucket is issued" interleaving.  Ignored on
        the blocking schedule.
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
        self, params: list[Parameter], tag: str
    ) -> Callable[[], None]:
        """Issue one dense allreduce; return the finisher that applies it.

        The averaged gradient lands as **one array object on every
        replica**: the ranks of a synchronous step hold equal gradients,
        so there is one result and whoever applies it reads it once.
        """
        data = self.comm.axis("data")
        grads = []
        for p in params:
            if p.grad is None:
                raise ValueError(f"{tag}: rank missing dense grad")
            grads.append(p.grad)
        shape, dtype = grads[0].shape, grads[0].dtype
        # Taken, not read: once the reduced grads are applied nothing
        # else should keep the replicas' pre-sync block alive.
        block, params[0]._grad_block = params[0]._grad_block, None
        arrays = shard_dense(grads, data.groups)
        # The batched executor hands out per-rank grads as rank-order
        # rows of one contiguous block and marks rank 0's parameter with
        # it; verifying every grad still aliases that block (an
        # accumulated ``old + new`` grad does not) lets the codec encode
        # it in one call and the allreduce skip restacking G views.
        # Bit-identical either way.
        if block is not None and (
            arrays is not grads
            or block.shape != (len(params),) + shape
            or any(g.base is not block for g in grads)
        ):
            block = None
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
                charge_compute=(
                    self.wire.charge_codec_compute
                    if self.wire is not None
                    else True
                ),
                stacked=block,
            )
        else:
            payload_bytes = None
            if codec is not None:
                payload_bytes = max(
                    arrays[ranks[0]].nbytes for ranks in data.groups
                )
                arrays, block = encode_stacked(codec, arrays, block)
            handle = data.iallreduce(
                arrays,
                tag=tag,
                payload_bytes=payload_bytes,
                stacked=block,
            )

        def finish() -> None:
            # Each shard group's one shared result is read once.
            reduced = unshard_dense(handle.wait(), data.groups, shape)
            if codec is not None and not fused:  # the fused ring decodes
                reduced = codec.decode(reduced, dtype)
            grad = reduced / len(params)
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

        Each synced value lands as **one object** on every replica's
        parameter, not as per-replica copies: a consumer that scales or
        unscales the result does so once (through any one replica), and
        independent optimizers may each read it.

        Blocking, each collective is issued and drained under its
        parameter's cost scope before the next is touched.  With
        ``overlap=True`` parameters are issued in *reverse* registration
        order, so dense buckets and the sparse exchanges' index gathers
        queue up back-to-back the way an eager DDP-style hook would
        issue them; finishers then drain in the same order, the sparse
        second-stage collectives (the value allreduce, which depends on
        the gathered indices) being issued during the drain under the
        owning parameter's scope.
        """
        named, names = self._named_params(
            replicas, self.comm.axis("data").ring_size
        )
        scope = self.comm.timeline.scope
        deferred: list[tuple[str, Callable[[], None]]] = []
        for name in reversed(names) if self.overlap else names:
            params = [d[name] for d in named]
            issuers = []
            if any(p.grad is not None for p in params):
                issuers.append((self._issue_dense, f"{name}:dense"))
            if any(p.sparse_grads for p in params):
                issuers.append((self._issue_sparse, name))
            if self.overlap and self.on_issue is not None and issuers:
                self.on_issue(name)
            scope_name = name.replace("/", "-")
            with scope(scope_name):
                for issue, tag in issuers:
                    finish = issue(params, tag=tag)
                    if self.overlap:
                        deferred.append((scope_name, finish))
                    else:
                        finish()
        for scope_name, finish in deferred:
            with scope(scope_name):
                finish()
