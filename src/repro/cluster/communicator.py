"""The simulated-cluster communicator: MPI-flavoured collectives with
memory, cost, and schedule accounting.

Design
------
The simulator is **SPMD-in-one-process**: all ranks live in the host
Python process and the training loop advances them together.  A
collective therefore takes a *list* of per-rank arrays (index = rank)
and returns the per-rank results, instead of being called once per MPI
process.  This keeps the numerics bit-exact and the control flow
single-threaded, while the timeline and the per-device allocators capture
what a real cluster would have moved and held:

* each collective charges its **scratch buffers** to every participating
  :class:`~repro.cluster.device.SimulatedDevice` for the duration of the
  call — an ALLGATHER of dense gradients really does spike every GPU by
  ``G*K*D`` floats, which is how the baseline OOMs in Tables III/IV;
* each collective is placed on the per-rank
  :class:`~repro.cluster.timeline.Timeline` as **one** record carrying
  its **wire bytes per rank** and **alpha-beta model time**, so
  overlapped schedules produce a measured makespan instead of a summed
  phase list; :attr:`Communicator.ledger` is the read-only
  :class:`~repro.cluster.tracing.CostLedger` view of those records.

Async engine
------------
Every collective has a non-blocking ``i*`` variant (``iallreduce``,
``iallgather``, ``ireduce_scatter``) returning a
:class:`WorkHandle` — the same issue/wait split PyTorch ``ProcessGroup``
and Horovod expose.  Issue computes the numerics eagerly (the simulator
is deterministic, so results cannot depend on wait order — bit-exactness
by construction), charges scratch, and records the collective on the
comm stream; ``wait()`` releases the scratch and
blocks the compute streams at the collective's timeline end.  The
blocking methods are exactly ``issue + wait``, so existing callers see
identical numerics, cost totals, and peak footprints.

An allreduce or allgather result is identical on every rank of a ring,
so every member receives the **same** array object, read-only
(``writeable=False``): a caller that writes to it fails loudly instead
of corrupting the other ranks' results.

One funnel, axis-addressed
--------------------------
A communicator knows its :class:`~repro.cluster.mesh.DeviceMesh` (a
plain ``Communicator(G)`` is the one-axis ``data=G`` world) and every
collective is defined once, parameterised by the **group set it rings
over**.  :meth:`Communicator.axis` returns a view bound to one mesh
axis: same timeline, devices, pending set and hooks, but its
collectives reduce independently inside each subgroup of the axis.  A
per-rank list is always indexed by *flat* rank, and an allreduce's
per-ring payload (one :class:`~repro.cluster.collectives.FusedRun` of
rank blocks per subgroup) follows the view's group order; disjoint
subgroups run
concurrently on disjoint links, so one collective is **one** timeline
record costed on the largest subgroup's message, tagged ``axis:tag``.
An axis that spans the whole world *is* the communicator itself — which
is why flat data-parallel training and a ``(1, 1, G)`` mesh are the
same code path, byte for byte.

Each record is charged the ring's wire bytes and the cheaper of the flat
ring on the axis link and the two-level schedule — intra-node rings
around an inter-node recursive halving/doubling among the node peers
(a ring when their count is not a power of two;
:func:`~repro.cluster.collectives.collective_time`) — and names it
(``CollectiveRecord.schedule``); the numerics are the one fold either way.

Observers attach through one ordered hook protocol
(:class:`CollectiveHook`): ``pre_issue`` before anything is touched
(fault replay raises here; the sanitizer validates here),
``post_issue`` once the handle exists and ``on_wait`` (the sanitizer
hashes the payload buffers at the one and re-checks them at the
other).  Because the hooks
sit on the funnel, they see blocking, non-blocking, per-axis and
explicitly-scheduled (:meth:`Communicator.issue_scheduled`) collectives
alike.

The API mirrors mpi4py's buffer-object conventions (`Allreduce`,
`Allgather`, ...) in lower-case, operating on numpy arrays directly.
"""

from __future__ import annotations

import copy
from collections import Counter
from collections.abc import Callable, Sequence
from functools import lru_cache

import numpy as np

from . import collectives as coll
from .device import (
    TITAN_X,
    DeviceSpec,
    SimulatedDevice,
    charge_group,
    release_group,
)
from .interconnect import Interconnect, PAPER_CLUSTER_FABRIC
from .mesh import DeviceMesh
from .timeline import CollectiveRecord, Timeline
from .tracing import CostLedger

__all__ = ["CollectiveHook", "Communicator", "WorkHandle"]


class CollectiveHook:
    """Observer protocol of the collective funnel (all methods optional).

    Hooks live in :attr:`Communicator.hooks` and run in attach order.
    ``comm`` is the issuing communicator — the root or an
    :meth:`Communicator.axis` view, so ``comm.groups`` / ``comm.axis_name``
    say which rings the collective runs over.
    """

    def pre_issue(self, comm, op: str, tag: str, arrays) -> None:
        """Before any state is touched; raising aborts the collective.

        ``arrays`` is the caller's payload as given — a per-flat-rank
        list, or an allreduce's one
        :class:`~repro.cluster.collectives.FusedRun` per ring — or None
        for payload-free steps such as transfers and fused ring hops.
        """

    def post_issue(self, comm, handle: "WorkHandle", arrays) -> None:
        """After the collective is scheduled, recorded and enqueued."""

    def on_wait(self, handle: "WorkHandle") -> None:
        """First ``wait()`` of a handle, before its scratch is released."""


class WorkHandle:
    """One in-flight non-blocking collective.

    Returned by the communicator's ``i*`` methods.  The numeric results
    are computed at issue time (the simulator is single-threaded and
    deterministic); what the handle defers is the *accounting*: scratch
    buffers stay charged to every device, and the simulated compute
    streams are not blocked, until :meth:`wait`.

    A handle must be awaited exactly once before the results are used —
    dropping one leaks scratch memory and desynchronizes the timeline,
    which is the bug class the runtime sanitizer's dropped-handle check
    targets.
    """

    def __init__(
        self,
        comm: "Communicator",
        results: list[np.ndarray],
        scratch_bytes: int,
        charged: bool,
        ticket: CollectiveRecord,
    ):
        self._comm = comm
        self.op, self.tag = ticket.op, ticket.tag
        self._results = results
        self.scratch_bytes = scratch_bytes
        #: Whether ``scratch_bytes`` sits on the devices until ``wait()``.
        self._charged = charged
        self.ticket = ticket
        self._complete = False

    def wait(self) -> list[np.ndarray]:
        """Complete the collective and return the per-rank results.

        Releases the scratch buffers, removes the handle from the
        communicator's pending set, and advances every rank's compute
        stream to the collective's timeline end.  Idempotent: a second
        ``wait()`` returns the cached results without re-accounting.
        """
        if not self._complete:
            for hook in self._comm.hooks:
                hook.on_wait(self)
            self._complete = True
            if self._charged:
                release_group(self._comm.devices, self.scratch_bytes)
            self._comm._pending.discard(self)
            self._comm.timeline.complete(self.ticket)
        return self._results


def _ring_shape(groups: Sequence[tuple[int, ...]], fabric: Interconnect):
    """``(link, L)`` of a ring set: the inter-node link as soon as any
    ring spans nodes, and the ranks every ring holds on each of its
    nodes (1 when some node holds a different number)."""
    counts: set[int] = set()
    spans = False
    for ranks in groups:
        per_node = Counter(map(fabric.node_of, ranks))
        spans |= len(per_node) > 1
        counts.update(per_node.values())
    link = fabric.inter_node if spans else fabric.intra_node
    return link, counts.pop() if len(counts) == 1 else 1


@lru_cache(maxsize=1024)
def _axis_rings(mesh: DeviceMesh, axis: str, fabric: Interconnect):
    """``(rank tuples, link, L)`` of one mesh axis — memoized."""
    groups = tuple(g.ranks for g in mesh.groups(axis))
    return (groups, *_ring_shape(groups, fabric))


class Communicator:
    """A simulated communicator over ``world_size`` ranks.

    Parameters
    ----------
    world_size:
        Number of simulated ranks (GPUs).
    device_spec:
        Hardware description applied to every rank's device.
    fabric:
        Interconnect topology; defaults to the paper's PCIe + FDR-IB
        cluster with 8 GPUs per node.
    track_memory:
        When False, scratch-buffer charging is skipped (useful for pure
        accuracy experiments where OOM modelling is irrelevant and the
        simulated ``world`` exceeds what a 12 GB card could hold).
    mesh:
        Named-axis layout of the ranks; defaults to the one-axis
        ``data=world_size`` world.  Assignable later (the trainer sets
        the configured hybrid mesh on whatever communicator it is
        given); :meth:`axis` addresses its axes.

    Notes
    -----
    Every collective — blocking and non-blocking — is recorded on
    :attr:`timeline`; :attr:`ledger` is the read-only cost view of it.
    The ``metrics`` attribute is ``None`` by default; a
    :class:`~repro.telemetry.TelemetrySession` sets it to its
    :class:`~repro.telemetry.MetricsRegistry` via ``track()``, after
    which the wire layer records its per-codec histograms.
    """

    def __init__(
        self,
        world_size: int,
        device_spec: DeviceSpec = TITAN_X,
        fabric: Interconnect = PAPER_CLUSTER_FABRIC,
        track_memory: bool = True,
        mesh: DeviceMesh | None = None,
    ):
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        self.world_size = world_size
        self.fabric = fabric
        self.track_memory = track_memory
        self.timeline = Timeline(world_size)
        self.ledger = CostLedger(self.timeline)
        self.devices = [
            SimulatedDevice(device_id=r, spec=device_spec) for r in range(world_size)
        ]
        self.mesh = (
            mesh if mesh is not None else DeviceMesh(("data",), (world_size,))
        )
        #: The rings this communicator's collectives run over, as rank
        #: tuples: the whole world here, one per subgroup on an
        #: :meth:`axis` view (whose ``axis_name`` names the axis).
        self.axis_name: str | None = None
        self.groups: tuple[tuple[int, ...], ...] = (tuple(range(world_size)),)
        self.ring_size = world_size
        #: The rings' binding link and their ranks per node (1 when
        #: uneven): :meth:`collective_time`'s ring shape.
        self.link, self.local = _ring_shape(self.groups, fabric)
        #: Ordered :class:`CollectiveHook` observers (shared with views).
        self.hooks: list[CollectiveHook] = []
        self._pending: set[WorkHandle] = set()
        #: The communicator an :meth:`axis` view was taken from (None on
        #: the root itself — a self-reference would be a cycle that only
        #: the cyclic garbage collector could free).
        self._view_of: Communicator | None = None
        #: Optional telemetry registry (set by TelemetrySession.track).
        self.metrics = None

    @property
    def mesh(self) -> DeviceMesh:
        """The named-axis layout :meth:`axis` addresses."""
        return self._mesh

    @mesh.setter
    def mesh(self, mesh: DeviceMesh) -> None:
        if mesh.size != self.world_size:
            raise ValueError(
                f"mesh has {mesh.size} rank(s) but communicator world "
                f"size is {self.world_size}"
            )
        self._mesh = mesh

    def axis(self, name: str) -> "Communicator":
        """The communicator whose collectives ring over ``name``'s subgroups.

        The view shares this communicator's timeline, devices,
        pending set and hooks; only the group set, ring size and link
        differ.  Per-rank lists stay indexed by flat rank.  Views are
        cheap snapshots — take one where it is used rather than holding
        it across reconfiguration (``mesh`` / ``metrics`` assignment).
        An axis spanning the whole world is this communicator itself.
        """
        root = self._root
        groups, link, local = _axis_rings(root.mesh, name, root.fabric)
        if len(groups) == 1:
            return root
        view = copy.copy(root)
        view._view_of = root
        view.axis_name = name
        view.groups = groups
        view.ring_size = len(groups[0])
        view.link = link
        view.local = local
        return view

    @property
    def _root(self) -> "Communicator":
        return self if self._view_of is None else self._view_of

    # ------------------------------------------------------------------
    # the funnel
    # ------------------------------------------------------------------

    def by_group(
        self, arrays: Sequence, fn: Callable[[list, int], Sequence]
    ) -> list:
        """Run ``fn(member_arrays, group_index)`` per ring.

        Each ring's per-member results land back at the members' flat
        ranks; with one ring this is ``fn(arrays, 0)`` itself.
        """
        if len(self.groups) == 1:
            return fn(arrays, 0)
        out: list = [None] * self.world_size
        for i, ranks in enumerate(self.groups):
            for r, res in zip(ranks, fn([arrays[r] for r in ranks], i)):
                out[r] = res
        return out

    def _pre_issue(self, op: str, tag: str, arrays) -> None:
        """Run the pre-issue hooks, then check the payload's rank count."""
        for hook in self.hooks:
            hook.pre_issue(self, op, tag, arrays)
        if arrays is not None:
            coll.check_ranks(op, arrays, self.groups)

    def _ring_bytes(self, arrays: Sequence) -> int:
        """Message size of the largest ring (one of its ranks' share).

        Reduce-family payloads are uniform within a ring but may differ
        across rings (each model shard has its own shape); rings run
        concurrently, so the largest one sets the cost.
        """
        if coll.is_payload(arrays):
            return max(run.nbytes for run in arrays)
        return max(int(arrays[ranks[0]].nbytes) for ranks in self.groups)

    def _ring_collective(
        self,
        op: str,
        arrays: Sequence,
        tag: str,
        results: list,
        nbytes: int,
        scratch_bytes: int,
        payload_bytes: int | None = None,
        members: Sequence[tuple[str, int]] | None = None,
    ) -> WorkHandle:
        """Issue one ring collective of ``nbytes`` messages (hooks ran).

        ``results`` are its numerics, per flat rank; the single event is
        charged the ring's wire bytes and the time of the cheaper schedule
        (:meth:`collective_time`).  ``payload_bytes`` (pre-codec message
        size) is converted the same way for measured-compression
        reporting.
        """
        n = self.ring_size
        wire_bytes = coll.RING_COST[op][0]
        time_s, schedule = self.collective_time(op, nbytes)
        return self._issue(
            op=op,
            results=results,
            scratch_bytes=scratch_bytes,
            scratch_tag=f"{op}-recv:{tag}",
            wire_bytes_per_rank=wire_bytes(n, nbytes),
            time_s=time_s,
            schedule=schedule,
            tag=tag,
            payload_bytes_per_rank=(
                None if payload_bytes is None else wire_bytes(n, payload_bytes)
            ),
            payload=arrays,
            members=members,
        )

    def collective_time(self, op: str, nbytes: int) -> tuple[float, str]:
        """``(seconds, schedule)`` the funnel charges ``op`` on these
        rings (:func:`~repro.cluster.collectives.collective_time`)."""
        return coll.collective_time(
            op, self.ring_size, nbytes, self.link, self.fabric, self.local
        )

    def _issue(
        self,
        op: str,
        results: list[np.ndarray],
        scratch_bytes: int,
        scratch_tag: str,
        wire_bytes_per_rank: int,
        time_s: float,
        tag: str,
        schedule: str = "",
        payload_bytes_per_rank: int | None = None,
        payload: Sequence | None = None,
        members: Sequence[tuple[str, int]] | None = None,
    ) -> WorkHandle:
        """Common issue path: charge scratch, record, enqueue.

        ``payload`` is the caller's (see :meth:`CollectiveHook.pre_issue`),
        forwarded (not copied) to the ``post_issue`` hooks so a sanitizer
        can hash the in-flight buffers.  ``schedule`` names the schedule
        that set ``time_s`` (empty for an explicitly-costed step).
        """
        if self.axis_name is not None:
            tag = f"{self.axis_name}:{tag}"
        charged = self.track_memory and scratch_bytes > 0
        if charged:
            charge_group(self.devices, scratch_bytes, scratch_tag)
        ticket = self.timeline.schedule_collective(
            time_s,
            tag,
            op=op,
            wire_bytes_per_rank=wire_bytes_per_rank,
            payload_bytes_per_rank=payload_bytes_per_rank,
            members=members,
            schedule=schedule,
        )
        handle = WorkHandle(self, results, scratch_bytes, charged, ticket)
        self._pending.add(handle)
        for hook in self.hooks:
            hook.post_issue(self, handle, payload)
        return handle

    # ------------------------------------------------------------------
    # non-blocking collectives (the async engine)
    # ------------------------------------------------------------------

    def iallreduce(
        self,
        arrays: Sequence,
        tag: str = "",
        payload_bytes: int | None = None,
        members: Sequence[tuple[str, int]] | None = None,
    ) -> WorkHandle:
        """Non-blocking sum-allreduce; ring algorithm cost model.

        ``arrays`` is the payload: one
        :class:`~repro.cluster.collectives.FusedRun` per ring, in
        :attr:`groups` order, whose ``(ring, ...)`` member blocks hold
        the ring's member ranks as rows — each ring then receives its
        flat sum — or a per-flat-rank list of arrays, stacked once per
        ring, whose sums keep the arrays' shape.  Every rank of a ring
        receives that ring's one read-only sum (see the module
        docstring).

        Scratch: one extra buffer of the message size per rank (the ring
        works in-place on shards, needing only a receive shard; we charge
        a conservative full-message receive buffer), held until
        ``wait()``.

        ``payload_bytes`` is the optional pre-codec (logical) per-rank
        payload size: codec layers pass it so the ledger can report the
        measured compression factor alongside the encoded wire bytes.

        ``members`` marks a packed message: ``(label, nbytes)`` per
        payload, crediting its wire bytes to each payload's own scope
        (see :meth:`~repro.cluster.timeline.Timeline.schedule_collective`).
        """
        self._pre_issue("allreduce", tag, arrays)
        if coll.is_payload(arrays):
            results = self.by_group(
                range(self.world_size),
                lambda _, ring: coll.allreduce_arrays(arrays[ring]),
            )
        else:
            results = self.by_group(
                arrays, lambda sub, _: coll.allreduce_arrays(sub)
            )
        nbytes = self._ring_bytes(arrays)
        return self._ring_collective(
            "allreduce", arrays, tag, results, nbytes, nbytes, payload_bytes,
            members,
        )

    def iallgather(
        self,
        arrays: Sequence[np.ndarray],
        tag: str = "",
        payload_bytes: int | None = None,
        members: Sequence[tuple[str, int]] | None = None,
    ) -> WorkHandle:
        """Non-blocking allgather (allgatherv).

        Scratch: every rank must hold the **full gathered result** of
        its ring — the ``Θ(G·K·D)`` footprint that limits the baseline —
        until ``wait()``.

        ``payload_bytes`` is the optional pre-codec (logical) max
        per-rank contribution, recorded for measured-compression
        reporting (see :meth:`iallreduce`), and ``members`` splits a
        packed message's bytes as there.  Every rank of a ring receives
        that ring's one read-only concatenation.
        """
        self._pre_issue("allgather", tag, arrays)
        contrib = [int(np.atleast_1d(a).nbytes) for a in arrays]
        return self._ring_collective(
            "allgather",
            arrays,
            tag,
            self.by_group(arrays, lambda sub, _: coll.allgather_arrays(sub)),
            max(contrib),
            max(sum(contrib[r] for r in ranks) for ranks in self.groups),
            payload_bytes,
            members,
        )

    def ireduce_scatter(
        self, arrays: Sequence[np.ndarray], tag: str = ""
    ) -> WorkHandle:
        """Non-blocking sum-reduce + scatter of equal shards, one per rank."""
        self._pre_issue("reduce_scatter", tag, arrays)
        nbytes = self._ring_bytes(arrays)
        return self._ring_collective(
            "reduce_scatter",
            arrays,
            tag,
            self.by_group(
                arrays, lambda sub, _: coll.reduce_scatter_arrays(sub)
            ),
            nbytes,
            nbytes // self.ring_size,
        )

    def issue_scheduled(
        self,
        op: str,
        results: Sequence[np.ndarray] | None = None,
        *,
        time_s: float,
        wire_bytes_per_rank: int,
        scratch_bytes: int = 0,
        scratch_tag: str = "",
        tag: str = "",
        payload_bytes_per_rank: int | None = None,
        payload: Sequence | None = None,
    ) -> WorkHandle:
        """Issue one explicitly-costed collective step.

        Entry point for composite transfer schedules — e.g. the per-hop
        ring steps of the fused compressed reductions in
        :mod:`repro.core.wire.fused` — whose numerics the caller has
        already computed and whose wire time/bytes the caller derives
        from data-dependent encoded frame sizes.  Accounting is the
        standard funnel: hooks, scratch charged to every device until
        ``wait()``, one ``time_s`` collective placed on the shared link
        (normal Timeline contention rules apply) and recorded with the
        encoded ``wire_bytes_per_rank`` (``payload_bytes_per_rank``
        rides along for measured-compression reporting).  ``wait()``
        advances every rank's compute clock to the step's end, exactly
        like any other collective.
        """
        if time_s < 0:
            raise ValueError("time_s must be non-negative")
        if wire_bytes_per_rank < 0:
            raise ValueError("wire_bytes_per_rank must be non-negative")
        self._pre_issue(op, tag, payload)
        return self._issue(
            op=op,
            results=[] if results is None else list(results),
            scratch_bytes=scratch_bytes,
            scratch_tag=scratch_tag or f"{op}-recv:{tag}",
            wire_bytes_per_rank=wire_bytes_per_rank,
            time_s=time_s,
            tag=tag,
            payload_bytes_per_rank=payload_bytes_per_rank,
            payload=payload,
        )

    def transfer(self, nbytes: int, tag: str = "") -> None:
        """Charge one point-to-point transfer on this communicator's link.

        Models the pipeline-parallel activation/gradient send between
        adjacent stages of the ``pipe`` axis: every subgroup's pair
        transfers concurrently, so one collective of the link's transfer
        time is scheduled (and completed) and ``nbytes`` per rank is
        recorded under ``op="transfer"``.
        """
        if nbytes < 0:
            raise ValueError(f"transfer size must be >= 0, got {nbytes}")
        self.issue_scheduled(
            "transfer",
            time_s=self.link.transfer_time(nbytes),
            wire_bytes_per_rank=int(nbytes),
            tag=tag,
        ).wait()

    # ------------------------------------------------------------------
    # blocking collectives (issue + wait; numerics and accounting are
    # bit-identical to the pre-async engine)
    # ------------------------------------------------------------------

    def allreduce(
        self,
        arrays: Sequence[np.ndarray],
        tag: str = "",
        payload_bytes: int | None = None,
    ) -> list[np.ndarray]:
        """Sum-allreduce across ranks (ring algorithm cost model)."""
        return self.iallreduce(arrays, tag=tag, payload_bytes=payload_bytes).wait()

    def allgather(
        self,
        arrays: Sequence[np.ndarray],
        tag: str = "",
        payload_bytes: int | None = None,
    ) -> list[np.ndarray]:
        """Allgather (allgatherv) across ranks."""
        return self.iallgather(arrays, tag=tag, payload_bytes=payload_bytes).wait()

    def reduce_scatter(
        self, arrays: Sequence[np.ndarray], tag: str = ""
    ) -> list[np.ndarray]:
        """Sum-reduce then scatter equal shards, one per rank."""
        return self.ireduce_scatter(arrays, tag=tag).wait()

    def wait_all(self) -> int:
        """Wait every pending handle (drain the comm streams).

        Returns the number of handles completed.  Useful at step or
        epoch boundaries to guarantee no work is silently in flight.
        """
        pending = list(self._pending)
        for handle in pending:
            handle.wait()
        return len(pending)

    # ------------------------------------------------------------------
    # memory views
    # ------------------------------------------------------------------

    @property
    def pending_work(self) -> tuple[WorkHandle, ...]:
        """Handles issued but not yet awaited (order unspecified)."""
        return tuple(self._pending)

    @property
    def peak_bytes_per_rank(self) -> int:
        """Maximum peak footprint over all devices.

        The peak *includes* scratch of in-flight async work: a handle
        issued but not yet awaited keeps its receive buffers charged to
        every device, exactly as a real non-blocking collective pins its
        buffers until completion.
        """
        return max(dev.peak_bytes for dev in self.devices)
