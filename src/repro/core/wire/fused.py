"""Fused compressed ring allreduce (compress-reduce, ZipCCL-style).

The wire stack's encoded allgather compresses payloads *outside* the
collective: encode, allgather the frames, decode.  For reductions that
is the wrong shape — a ring reduce-scatter moves *partial sums*, and
what can be compressed is each hop's partial, not the caller's input.
:func:`icompressed_allreduce` fuses the codec into the ring schedule: a
chunked reduce-scatter phase with per-hop compression, then an
allgather phase over the encoded reduced shards.

The codec must be **summable** (:attr:`WireCodec.summable
<repro.core.compression.WireCodec.summable>`: identity, FP16): ``encode``
maps elements to fixed-position numeric slots, so partials are reduced
*in the compressed domain* — each rank encodes its contribution once,
hops add wire tensors directly, and one decode at the end recovers the
result.  Numerics are identical to the unfused encode → allreduce →
decode path by construction: the reduction is the same rank-order
wire-domain fold.  Frame codecs (delta, entropy) are refused:
adding two bitstreams is meaningless, and the gradient sync only ever
reduces float values — integer index sets are gathered, never reduced.

``codec=None`` runs the same chunked hop schedule on raw bytes — the
accounting baseline whose makespan equals the classic ring cost models
(summing ``2(G-1)`` hops of ``α + shard/β`` reproduces
:func:`~repro.cluster.collectives.ring_allreduce_time` exactly).

Accounting.  Every hop is one explicitly-costed collective step through
:meth:`Communicator.issue_scheduled
<repro.cluster.communicator.Communicator.issue_scheduled>`: the ledger
is charged the **encoded** hop bytes, with the logical chunk bytes
riding along for measured-compression reporting; encode/decode compute
lands on every rank's Timeline compute stream, so the contention rules
pipeline chunk ``c+1``'s encode under chunk ``c``'s transfer with no
special machinery.  The analytic twin of this schedule is
:func:`repro.perf.codec_model.fused_reduce_time`, validated ``≡`` the
executed Timeline schedule by the wire benches.

Rings.  The schedule runs over whatever rings the communicator has: on
a ``comm.axis("data")`` view every data subgroup reduces its own
payload (numerics per ring), while the hop plan — and therefore every
ledger event and timeline ticket — is built once, from the ring with
the largest message, over the view's ring size and link.  The first
hop carries the caller's payload to the funnel's hooks, so
fault plans and the sanitizer see fused traffic like any other
collective.

Like everything in the simulator, numerics are eager at issue;
:meth:`PendingFusedReduce.wait` defers the *accounting* of the final
hops and decode so callers can overlap them with their own compute.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ...cluster.collectives import allreduce_arrays, is_payload, ring_payloads
from .cost import CodecThroughput, codec_throughput
from .transfer import wire_instruments

__all__ = [
    "FusedReducePlan",
    "PendingFusedReduce",
    "icompressed_allreduce",
    "plan_fused_reduce",
]


@dataclass(frozen=True)
class FusedReducePlan:
    """The data-dependent schedule of one fused compressed reduction.

    Byte-level description shared by three consumers that must agree
    exactly: the live collective here (which executes it on the
    communicator), :func:`repro.perf.codec_model.fused_reduce_time`
    (the closed-form makespan recurrence), and
    :func:`repro.perf.codec_model.timeline_fused_reduce` (the same
    schedule replayed on a fresh Timeline).  Ranks are uniform in the
    cost model, so per-hop wire sizes are the max over ranks.

    ``chunk_logical`` are the logical (pre-codec) bytes of one *shard
    piece* per chunk — the ring's unit of transfer; a rank's full
    contribution is ``world * sum(chunk_logical)`` bytes.
    """

    world: int
    #: Logical bytes of one shard piece, per chunk.
    chunk_logical: tuple[int, ...]
    #: Logical bytes encoded on each rank before a chunk's first hop
    #: (summable: the chunk's slice of all ``world`` shards; raw: 0).
    pre_encode: tuple[int, ...]
    #: Encoded wire bytes of each reduce-scatter hop, ``[chunk][hop]``,
    #: max over ranks; ``world - 1`` hops per chunk.
    rs_hop_bytes: tuple[tuple[int, ...], ...]
    #: Encoded wire bytes of each allgather hop, ``[chunk][hop]``.
    ag_hop_bytes: tuple[tuple[int, ...], ...]
    #: Logical bytes decoded on each rank at drain, per chunk.
    final_decode: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.world < 1:
            raise ValueError("world must be >= 1")
        hops = self.world - 1
        n = len(self.chunk_logical)
        if any(b < 0 for b in self.chunk_logical):
            raise ValueError("chunk_logical bytes must be non-negative")
        for name, rows in (
            ("rs_hop_bytes", self.rs_hop_bytes),
            ("ag_hop_bytes", self.ag_hop_bytes),
        ):
            if len(rows) != n or any(len(row) != hops for row in rows):
                raise ValueError(
                    f"{name} must hold {n} chunks x {hops} hops"
                )
        if len(self.pre_encode) != n or len(self.final_decode) != n:
            raise ValueError(
                "pre_encode/final_decode must have one entry per chunk"
            )


def _chunk_elems(shard_elems: int, itemsize: int, chunk_bytes: int | None):
    """Per-chunk element counts splitting one shard piece."""
    if chunk_bytes is not None and chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    if shard_elems == 0:
        return [0]
    if chunk_bytes is None:
        return [shard_elems]
    per = max(1, chunk_bytes // itemsize)
    counts = [per] * (shard_elems // per)
    if shard_elems % per:
        counts.append(shard_elems % per)
    return counts


def plan_fused_reduce(
    arrays: Sequence[np.ndarray],
    codec,
    chunk_bytes: int | None = None,
) -> FusedReducePlan:
    """Build the byte-level schedule for one fused allreduce.

    ``codec`` may be None (raw ring) or a summable value codec; any
    other codec raises ``ValueError``.
    """
    world = len(arrays)
    dtype = arrays[0].dtype
    itemsize = wire_item = dtype.itemsize
    if codec is not None:
        if not getattr(codec, "summable", False):
            raise ValueError(
                "a fused reduction needs a summable codec (identity, fp16) "
                f"or codec=None; {codec.name!r} is not summable"
            )
        wire_dt = codec.wire_dtype(dtype)
        if wire_dt is None:
            raise ValueError(
                f"summable codec {codec.name!r} must report wire_dtype"
            )
        wire_item = np.dtype(wire_dt).itemsize
    # A real ring zero-pads to a world multiple to get equal shards; the
    # padding affects accounting only, never the results.
    padded = arrays[0].size + (-arrays[0].size) % world
    chunks = _chunk_elems(padded // world, itemsize, chunk_bytes)
    if world == 1:
        # Degenerate ring: no hops; the codec roundtrip (if any) is
        # still charged so G=1 matches the unfused encode/decode path.
        lb = padded * itemsize
        coded = (lb if codec is not None else 0,)
        return FusedReducePlan(
            world=1, chunk_logical=(lb,), pre_encode=coded,
            rs_hop_bytes=((),), ag_hop_bytes=((),), final_decode=coded,
        )
    chunk_logical = tuple(n * itemsize for n in chunks)
    hop_bytes = tuple((n * wire_item,) * (world - 1) for n in chunks)
    coded = tuple(
        world * lb if codec is not None else 0 for lb in chunk_logical
    )
    return FusedReducePlan(
        world=world,
        chunk_logical=chunk_logical,
        pre_encode=coded,
        rs_hop_bytes=hop_bytes,
        ag_hop_bytes=hop_bytes,
        final_decode=coded,
    )


class PendingFusedReduce:
    """An in-flight fused compressed allreduce.

    The intermediate hops were issued eagerly — what remains at
    :meth:`wait` is completing each chunk's final hop ticket, charging
    the final decode compute, and handing back the per-rank results.
    Idempotent, like every handle here.
    """

    def __init__(
        self,
        issued: list,
        drain_upto: list[int],
        final_decode: tuple[int, ...],
        results: list[np.ndarray],
        charge,
    ):
        self._issued = issued
        self._drain_upto = drain_upto
        self._final_decode = final_decode
        self._results = results
        self._charge = charge
        self._done = False

    def wait(self) -> list[np.ndarray]:
        """Drain the final hops, charge final decodes, return results.

        Handles are completed in issue order up to each chunk's cut
        point before that chunk's decode is charged — link end times
        are monotone in issue order, so chunk ``c``'s decode overlaps
        the still-in-flight transfers of chunks ``> c``, exactly as the
        analytic recurrence assumes.
        """
        if self._done:
            return self._results
        i = 0
        for upto, lb in zip(self._drain_upto, self._final_decode):
            for handle in self._issued[i:upto]:
                handle.wait()
            i = upto
            self._charge("decode", lb)
        for handle in self._issued[i:]:
            handle.wait()
        self._done = True
        return self._results


def icompressed_allreduce(
    comm,
    arrays: Sequence,
    codec=None,
    tag: str = "",
    chunk_bytes: int | None = None,
    throughput: CodecThroughput | None = None,
) -> PendingFusedReduce:
    """Compressed ring allreduce: fused reduce-scatter + allgather.

    ``arrays`` is :meth:`Communicator.iallreduce`'s payload — one
    :class:`~repro.cluster.collectives.FusedRun` of rank blocks per
    ring, or a per-flat-rank list — and ``wait()`` returns the decoded
    sum of each ring, one read-only object for all its members, as
    ``iallreduce`` does.  With a summable codec the numerics equal the
    unfused encode → allreduce → decode path bit for bit (value codecs
    are elementwise, so encoding a block is the per-rank encode); with
    ``codec=None`` they equal the plain rank-order fold bit for bit.  A
    codec that is not summable raises ``ValueError`` before anything is
    issued.
    """
    rings = ring_payloads(arrays, comm.groups)
    # A per-rank list's sums keep its arrays' shape.
    shape = None if is_payload(arrays) else arrays[0].shape
    world, ring = comm.world_size, comm.ring_size
    # Rings run concurrently: cost the one with the largest message.
    lead = max(rings, key=lambda run: run.nbytes)
    dtype = lead.dtype
    plan = plan_fused_reduce([lead] * ring, codec, chunk_bytes=chunk_bytes)
    if codec is not None:
        rings = [run.map(codec.encode) for run in rings]

    # ---- numerics (eager, rank-order fold per ring — see module docstring)
    def reduce(_, i: int) -> list[np.ndarray]:
        summed = allreduce_arrays(rings[i])[0]
        if codec is not None:
            summed = codec.decode(summed, dtype)
        if shape is not None:
            summed = summed.reshape(shape)
        summed.flags.writeable = False
        return [summed] * ring

    results = comm.by_group(range(world), reduce)

    name = codec.name if codec is not None else "raw"
    tp = (
        (throughput if throughput is not None else codec_throughput(name))
        if codec is not None
        else None
    )
    ins = (
        wire_instruments(getattr(comm, "metrics", None), name)
        if codec is not None
        else None
    )
    op = "fused_allreduce"

    def charge(kind: str, lb: int) -> None:
        if tp is None or lb == 0:
            return
        secs = (
            tp.encode_seconds(lb) if kind == "encode"
            else tp.decode_seconds(lb)
        )
        comm.timeline.record_compute_all(secs, name=f"codec:{kind}")
        if ins is not None:
            ins[f"{kind}_s"].observe(secs, **ins["labels"])
            ins[f"{kind}_bytes"].inc(lb, **ins["labels"])

    chunks = plan.chunk_logical
    hops = ring - 1
    link = comm.link
    issued: list = []

    def issue_hop(phase: str, c: int, h: int, eb: int, lb: int):
        handle = comm.issue_scheduled(
            op,
            time_s=link.transfer_time(eb),
            wire_bytes_per_rank=eb,
            scratch_bytes=eb,
            scratch_tag=f"{op}-recv:{tag}",
            tag=f"{tag}:{phase}{h}" + (f"[{c}]" if len(chunks) > 1 else ""),
            payload_bytes_per_rank=lb,
            # The ring's first hop shows the hooks the caller's buffers.
            payload=None if issued else arrays,
        )
        if ins is not None:
            ins["frame_bytes"].inc(world * eb, **ins["labels"])
            ins["transfer_s"].observe(
                handle.ticket.end - handle.ticket.start, **ins["labels"]
            )
        issued.append(handle)

    drain_upto = [0] * len(chunks)
    cost_scope = comm.timeline.scope(f"fused-{name}")
    with cost_scope:
        # Reduce-scatter phase, hop-major: chunk c+1's encode overlaps
        # chunk c's transfer under the Timeline rules.
        for h in range(hops):
            for c, lb in enumerate(chunks):
                if h == 0:
                    charge("encode", plan.pre_encode[c])
                issue_hop("rs", c, h, plan.rs_hop_bytes[c][h], lb)
        if ring == 1 and plan.pre_encode[0]:
            charge("encode", plan.pre_encode[0])
        if hops:
            for c, lb in enumerate(chunks):
                for h in range(hops):
                    issue_hop("ag", c, h, plan.ag_hop_bytes[c][h], lb)
                drain_upto[c] = len(issued)
    return PendingFusedReduce(
        issued, drain_upto, plan.final_decode, results, charge
    )
