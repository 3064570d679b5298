"""Embedding-gradient exchange strategies: baseline vs the paper's.

Both strategies consume per-rank token-level
:class:`~repro.nn.parameter.SparseGrad` objects and return, for every
rank, the **globally-summed** gradient to apply — so swapping strategies
changes cost, never semantics (tested as the exchange-equivalence
invariant).

* :class:`AllGatherExchange` — the state-of-the-art baseline of Section
  II-B: every rank gathers all G dense K x D gradient blocks (plus their
  index vectors) and applies them locally.  Scratch memory and wire
  traffic are Θ(G·K·D); the paper shows this OOMs a 12 GB GPU past 24
  ranks.
* :class:`UniqueExchange` — the paper's Section III-A scheme, delegating
  to :func:`repro.core.unique.unique_exchange`: Θ(G·K + Ug·D).

Either can carry a :class:`~repro.core.wire.policy.WirePolicy`: its
value codec applies the Section III-C FP16 compression to the value
traffic, and its index codec routes the index gather through the
lossless frame codecs of :mod:`repro.core.wire` (so the Θ(G·K) index
traffic is charged at its *encoded* size).

Both run over whatever rings the communicator has — the whole world, or
each data subgroup of a ``comm.axis("data")`` view — and return, per
flat rank, that rank's ring's sum (one shared object per ring).

Each strategy also exposes :meth:`ExchangeStrategy.iexchange`, the
non-blocking form used by the overlapped synchronizer: it *issues* every
collective whose payload is already known and returns a
:class:`PendingSparseExchange` whose ``wait()`` finishes the rest.
``exchange`` is always ``iexchange(...).wait()``, so blocking and
overlapped runs stay bit-identical.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..cluster.communicator import Communicator
from ..nn.parameter import SparseGrad
from .unique import iunique_exchange
from .wire.policy import WirePolicy
from .wire.transfer import iencoded_allgather

__all__ = [
    "AllGatherExchange",
    "ExchangeStrategy",
    "PendingSparseExchange",
    "UniqueExchange",
]


class PendingSparseExchange:
    """A strategy exchange in flight; ``wait()`` yields per-rank grads.

    Wraps a finisher closure produced by a strategy's ``iexchange`` —
    the collectives that could be issued eagerly already have been; the
    finisher completes them (and any dependent collectives) and builds
    the per-rank result list.  ``wait`` is idempotent.
    """

    def __init__(self, finish: Callable[[], list[SparseGrad]]):
        self._finish = finish
        self._result: list[SparseGrad] | None = None

    def wait(self) -> list[SparseGrad]:
        """Complete the exchange; return the summed grad per rank."""
        if self._result is None:
            self._result = self._finish()
        return self._result


class ExchangeStrategy:
    """Interface for embedding-gradient synchronization strategies."""

    #: Short name used in ledgers and benchmark tables.
    name: str = "abstract"

    def exchange(
        self, comm: Communicator, grads: list[SparseGrad], tag: str = "embedding"
    ) -> list[SparseGrad]:
        """Synchronize per-rank grads; return the summed grad per rank."""
        return self.iexchange(comm, grads, tag=tag).wait()

    def iexchange(
        self, comm: Communicator, grads: list[SparseGrad], tag: str = "embedding"
    ) -> PendingSparseExchange:
        """Start the exchange without blocking; issue what can be issued."""
        raise NotImplementedError


class AllGatherExchange(ExchangeStrategy):
    """Baseline: ALLGATHER all token-level gradient blocks (Section II-B).

    Every rank ends up holding all ``G*K`` (index, row) pairs and applies
    the concatenation locally; duplicate indices accumulate on apply.
    """

    name = "allgather"

    def __init__(self, wire: WirePolicy | None = None):
        self.wire = wire

    def iexchange(
        self, comm: Communicator, grads: list[SparseGrad], tag: str = "embedding"
    ) -> PendingSparseExchange:
        """Issue the index allgather now; the value allgather at wait.

        The value payload has no data dependency on the index gather,
        but issuing both up front would hold *both* allgathers' Θ(G·K·D)
        scratch live at once — worsening exactly the memory wall this
        baseline is shown to hit.  Deferring the value gather keeps one
        collective's scratch live at a time, matching the blocking
        schedule's peak footprint byte-for-byte.
        """
        if len(grads) != comm.world_size:
            raise ValueError(
                f"got {len(grads)} gradients for world size {comm.world_size}"
            )
        dims = {g.dim for g in grads}
        if len(dims) != 1:
            raise ValueError(f"inconsistent gradient dims across ranks: {dims}")

        wire = self.wire
        index_vectors = [g.indices.astype(np.int64) for g in grads]
        # The baseline pairs index order with value rows, so the index
        # vectors must cross the wire unsorted (sorted_payload=False
        # makes the adaptive estimate honest about that).
        index_codec = (
            None
            if wire is None
            else wire.resolve_index_codec(
                index_vectors, comm, sorted_payload=False
            )
        )
        if index_codec is not None:
            idx_handle = iencoded_allgather(
                comm,
                index_vectors,
                index_codec,
                tag=f"{tag}:indices",
                chunk_bytes=wire.chunk_bytes,
                charge_compute=wire.charge_codec_compute,
            )
        else:
            idx_handle = comm.iallgather(index_vectors, tag=f"{tag}:indices")

        def finish() -> list[SparseGrad]:
            gathered_idx = idx_handle.wait()
            values = [g.values for g in grads]
            codec = (
                None if wire is None else wire.resolve_value_codec(values, comm)
            )
            if codec is not None:
                gathered_val = comm.iallgather(
                    [codec.encode(v) for v in values],
                    tag=f"{tag}:values",
                    payload_bytes=max(v.nbytes for v in values),
                ).wait()
            else:
                gathered_val = comm.iallgather(values, tag=f"{tag}:values").wait()

            def result(members: list[int], ring: int) -> list[SparseGrad]:
                head = members[0]
                ring_values = gathered_val[head]
                if codec is not None:
                    ring_values = codec.decode(ring_values, values[0].dtype)
                # Ranks share the simulator's memory; hand each an equal view.
                one = SparseGrad(indices=gathered_idx[head], values=ring_values)
                return [one] * len(members)

            return comm.by_group(range(comm.world_size), result)  # mesh-ok: flat-rank ids, regrouped per ring by by_group

        return PendingSparseExchange(finish)


class UniqueExchange(ExchangeStrategy):
    """The paper's uniqueness technique (Section III-A)."""

    name = "unique"

    def __init__(self, wire: WirePolicy | None = None):
        self.wire = wire

    def iexchange(
        self, comm: Communicator, grads: list[SparseGrad], tag: str = "embedding"
    ) -> PendingSparseExchange:
        """Issue the index allgather now; the value allreduce at wait."""
        pending = iunique_exchange(comm, grads, tag=tag, wire=self.wire)

        def finish() -> list[SparseGrad]:
            return comm.by_group(
                pending.wait(),
                lambda ring, _: [ring[0].as_sparse_grad()] * len(ring),
            )

        return PendingSparseExchange(finish)
