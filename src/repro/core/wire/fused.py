"""Fused compressed ring allreduce (compress-reduce, ZipCCL-style).

The wire stack's encoded allgather compresses payloads *outside* the
collective: encode, allgather the frames, decode.  For reductions that
is the wrong shape — a ring reduce-scatter moves *partial sums*, and
what can be compressed is each hop's partial, not the caller's input.
:func:`icompressed_allreduce` fuses the codec into the ring schedule: a
chunked reduce-scatter phase with per-hop compression, then an
allgather phase over the encoded reduced shards.

Two codec regimes, selected by :attr:`WireCodec.summable
<repro.core.compression.WireCodec.summable>`:

* **Summable value codecs** (identity, FP16): ``encode`` maps elements
  to fixed-position numeric slots, so partials are reduced *in the
  compressed domain* — each rank encodes its contribution once, hops
  add wire tensors directly, and one decode at the end recovers the
  result.  Numerics are identical to the unfused
  encode → allreduce → decode path by construction: the reduction is
  the same rank-order wire-domain fold.
* **Frame codecs** (delta, rle, entropy — *not* summable: adding two
  bitstreams is meaningless): the ring **recodes at every hop
  boundary** — decode the incoming partial, add, re-encode for the next
  hop.  Only integer payloads are accepted; integer addition is exact,
  so the result is bit-identical to the plain rank-order fold.

``codec=None`` runs the same chunked hop schedule on raw bytes — the
accounting baseline whose makespan equals the classic ring cost models
(summing ``2(G-1)`` hops of ``α + shard/β`` reproduces
:func:`~repro.cluster.collectives.ring_allreduce_time` exactly).

Accounting.  Every hop is one explicitly-costed collective step through
:meth:`Communicator.issue_scheduled
<repro.cluster.communicator.Communicator.issue_scheduled>`: the ledger
is charged the **encoded** hop bytes (data-dependent for frame codecs —
each hop's partial sums are actually encoded to measure them), with the
logical chunk bytes riding along for measured-compression reporting;
encode/decode compute lands on every rank's Timeline compute stream, so
the PR-2 contention rules pipeline chunk ``c+1``'s recode under chunk
``c``'s transfer with no special machinery.  The analytic twin of this
schedule is :func:`repro.perf.codec_model.fused_reduce_time`, validated
``≡`` the executed Timeline schedule by the wire benches.

Rings.  The schedule runs over whatever rings the communicator has: on
a ``comm.axis("data")`` view every data subgroup reduces its own
payload (numerics per ring), while the hop plan — and therefore every
ledger event and timeline ticket — is built once, from the ring with
the largest message, over the view's ring size and link.  The first
hop carries the caller's per-rank payload to the funnel's hooks, so
fault plans, the sanitizer and the lockstep verifier see fused traffic
like any other collective.

Like everything in the simulator, numerics are eager at issue;
:meth:`PendingFusedReduce.wait` defers the *accounting* of the final
hops and decode so callers can overlap them with their own compute.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ...cluster.collectives import allreduce_arrays
from ..compression import encode_stacked
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
    #: True when the schedule decodes + re-encodes at hop boundaries
    #: (frame codecs); False for summable/raw wire-domain reduction.
    hop_recode: bool
    #: Logical bytes of one shard piece, per chunk.
    chunk_logical: tuple[int, ...]
    #: Logical bytes encoded on each rank before a chunk's first hop
    #: (summable: the chunk's slice of all ``world`` shards; recode:
    #: the first partial, one shard piece; raw: 0).
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


def _flat_padded(arrays: Sequence[np.ndarray], world: int) -> list[np.ndarray]:
    """Flatten each rank's array, zero-padding to a world multiple.

    Padding mirrors what a real ring implementation does to get equal
    shards; it affects accounting (shard sizes, encoded partials) only —
    results are always computed from the unpadded inputs.
    """
    total = int(arrays[0].size)
    pad = (-total) % world
    out = []
    for a in arrays:
        flat = np.ascontiguousarray(a).reshape(-1)
        if pad:
            flat = np.concatenate([flat, np.zeros(pad, dtype=a.dtype)])
        out.append(flat)
    return out


def _frame_hop_sizes(
    flats: list[np.ndarray],
    codec,
    world: int,
    chunks: list[int],
) -> tuple[list[list[int]], list[list[int]]]:
    """Measure encoded bytes of every ring hop's partial sums.

    Walks the ring hop by hop — the partial sent at hop ``h`` for shard
    ``j`` covers ranks ``j .. j+h-1`` — encoding the ``world`` in-flight
    partials of a hop as one gather (``encode_many``) to charge the wire
    what a recoding ring actually ships.  Returns ``(rs[chunk][hop],
    ag[chunk][hop])`` maxima over ranks.
    """
    hops = world - 1
    shard = flats[0].size // world
    bounds = np.concatenate(([0], np.cumsum(chunks))).astype(np.intp)
    rs = [[0] * hops for _ in chunks]
    ag = [[0] * hops for _ in chunks]
    for c in range(len(chunks)):
        # Shard j's piece of this chunk, as every rank holds it.
        pieces = [
            slice(j * shard + bounds[c], j * shard + bounds[c + 1])
            for j in range(world)
        ]
        parts = [flats[j][pieces[j]].copy() for j in range(world)]
        for h in range(1, world):
            rs[c][h - 1] = max(f.size for f in codec.encode_many(parts))
            for j, part in enumerate(parts):
                part += flats[(j + h) % world][pieces[j]]
        if hops:
            ag[c] = [max(f.size for f in codec.encode_many(parts))] * hops
    return rs, ag


def plan_fused_reduce(
    arrays: Sequence[np.ndarray],
    codec,
    chunk_bytes: int | None = None,
) -> FusedReducePlan:
    """Build the byte-level schedule for one fused allreduce.

    ``codec`` may be None (raw ring), a summable value codec, or a
    lossless integer frame codec (hop recoding).  See the module
    docstring for the validation rules each regime imposes.
    """
    world = len(arrays)
    dtype = arrays[0].dtype
    itemsize = dtype.itemsize
    summable = codec is not None and getattr(codec, "summable", False)
    recode = codec is not None and not summable
    if recode:
        if not getattr(codec, "lossless", False):
            raise ValueError(
                f"codec {codec.name!r} is lossy and not summable: it can "
                "neither be reduced in the compressed domain nor recoded "
                "exactly at hop boundaries"
            )
        if dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
            raise ValueError(
                "index frames are not summable on the wire and cannot "
                f"carry {dtype} payloads through a fused reduction; use a "
                "summable value codec (fp16/identity) or codec=None"
            )
    flats = _flat_padded(arrays, world)
    shard_elems = flats[0].size // world
    chunks = _chunk_elems(shard_elems, itemsize, chunk_bytes)
    chunk_logical = tuple(n * itemsize for n in chunks)
    hops = world - 1
    if summable:
        wire_dt = codec.wire_dtype(dtype)
        if wire_dt is None:
            raise ValueError(
                f"summable codec {codec.name!r} must report wire_dtype"
            )
        wire_item = np.dtype(wire_dt).itemsize
        hop_row = [
            tuple(n * wire_item for _ in range(hops)) for n in chunks
        ]
        rs_hop = ag_hop = tuple(hop_row)
        pre = final = tuple(world * lb for lb in chunk_logical)
    elif recode:
        rs, ag = _frame_hop_sizes(flats, codec, world, chunks)
        rs_hop = tuple(tuple(row) for row in rs)
        ag_hop = tuple(tuple(row) for row in ag)
        pre = tuple(chunk_logical)
        # Decode the world-1 foreign reduced-shard frames at drain (the
        # own shard is raw after the last hop's add, which is charged at
        # the pre-allgather recode).
        final = tuple((world - 1) * lb for lb in chunk_logical)
    else:  # raw
        hop_row = [tuple(n * itemsize for _ in range(hops)) for n in chunks]
        rs_hop = ag_hop = tuple(hop_row)
        pre = final = tuple(0 for _ in chunks)
    if world == 1:
        # Degenerate ring: no hops; the codec roundtrip (if any) is
        # still charged so G=1 matches the unfused encode/decode path.
        if summable:
            lb = flats[0].size * itemsize
            pre = (lb,)
            final = (lb,)
        else:
            pre = (0,)
            final = (0,)
        return FusedReducePlan(
            world=1, hop_recode=False,
            chunk_logical=(flats[0].size * itemsize,),
            pre_encode=pre, rs_hop_bytes=((),), ag_hop_bytes=((),),
            final_decode=final,
        )
    return FusedReducePlan(
        world=world,
        hop_recode=recode,
        chunk_logical=chunk_logical,
        pre_encode=pre,
        rs_hop_bytes=rs_hop,
        ag_hop_bytes=ag_hop,
        final_decode=final,
    )


class PendingFusedReduce:
    """An in-flight fused compressed allreduce.

    The intermediate hops were issued (and, for recoding rings, waited)
    eagerly — what remains at :meth:`wait` is completing each chunk's
    final hop ticket, charging the final decode compute, and handing
    back the per-rank results.  Idempotent, like every handle here.
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
        analytic recurrence assumes.  ``wait()`` on already-completed
        hop handles (the recoding ring waits intermediates eagerly) is
        an idempotent no-op.
        """
        if self._done:
            return self._results
        i = 0
        for upto, lb in zip(self._drain_upto, self._final_decode):
            while i < upto:
                self._issued[i].wait()
                i += 1
            self._charge("decode", lb)
        while i < len(self._issued):
            self._issued[i].wait()
            i += 1
        self._done = True
        return self._results


def icompressed_allreduce(
    comm,
    arrays: Sequence[np.ndarray],
    codec=None,
    tag: str = "",
    chunk_bytes: int | None = None,
    throughput: CodecThroughput | None = None,
    charge_compute: bool = True,
    stacked: np.ndarray | None = None,
) -> PendingFusedReduce:
    """Compressed ring allreduce: fused reduce-scatter + allgather.

    ``wait()`` returns the decoded sum of each ring, one read-only
    object for all its members, as :meth:`Communicator.iallreduce`
    does.  With a summable codec the numerics equal the
    unfused encode → allreduce → decode path bit for bit; with a frame
    codec (integer payloads) or ``codec=None`` they equal the plain
    rank-order fold bit for bit.  ``stacked`` is the caller's assertion
    that ``arrays`` are, in rank order, the rows of that one block (as
    for :meth:`Communicator.iallreduce`, one-ring communicators only):
    a summable codec then encodes the block in one call and the fold
    runs on the encoded block, skipping ``world`` encodes and a restack.
    """
    if len(arrays) != comm.world_size:
        raise ValueError(
            f"got {len(arrays)} per-rank arrays for a "
            f"{comm.world_size}-rank communicator"
        )
    world, ring = comm.world_size, comm.ring_size
    # Rings run concurrently: cost the one with the largest message.
    lead = [
        arrays[r]
        for r in max(comm.groups, key=lambda ranks: arrays[ranks[0]].nbytes)
    ]
    dtype = lead[0].dtype
    plan = plan_fused_reduce(lead, codec, chunk_bytes=chunk_bytes)
    summable = codec is not None and getattr(codec, "summable", False)
    if stacked is not None and len(comm.groups) > 1:
        raise ValueError("stacked= describes the one ring of a flat reduce")
    wire_arrays = arrays
    if summable:
        wire_arrays, stacked = encode_stacked(codec, arrays, stacked)

    # ---- numerics (eager, rank-order fold per ring — see module docstring)
    def reduce(sub: list[np.ndarray], _: int) -> list[np.ndarray]:
        summed = allreduce_arrays(sub, stacked=stacked)
        if not summable:
            return summed
        decoded = codec.decode(summed[0], dtype)
        decoded.flags.writeable = False
        return [decoded] * len(sub)

    results = comm.by_group(wire_arrays, reduce)

    name = codec.name if codec is not None else "raw"
    tp = (
        (throughput if throughput is not None else codec_throughput(name))
        if charge_compute and codec is not None
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
            ticket = getattr(handle, "ticket", None)
            if ticket is not None:
                ins["transfer_s"].observe(
                    ticket.end - ticket.start, **ins["labels"]
                )
        issued.append(handle)
        return handle

    drain_upto = [0] * len(chunks)
    ledger_scope = comm.ledger.scope(f"fused-{name}")
    with ledger_scope:
        # Reduce-scatter phase, hop-major: chunk c+1's (re)encode
        # overlaps chunk c's transfer under the Timeline rules.
        rs_handles: list[list] = [[None] * hops for _ in chunks]
        for h in range(hops):
            for c, lb in enumerate(chunks):
                if h == 0:
                    charge("encode", plan.pre_encode[c])
                elif plan.hop_recode:
                    rs_handles[c][h - 1].wait()
                    charge("decode", lb)
                    charge("encode", lb)
                rs_handles[c][h] = issue_hop(
                    "rs", c, h, plan.rs_hop_bytes[c][h], lb
                )
        if ring == 1 and plan.pre_encode[0]:
            charge("encode", plan.pre_encode[0])
        if hops:
            for c, lb in enumerate(chunks):
                if plan.hop_recode:
                    rs_handles[c][hops - 1].wait()
                    charge("decode", lb)
                    charge("encode", lb)
                for h in range(hops):
                    issue_hop("ag", c, h, plan.ag_hop_bytes[c][h], lb)
                drain_upto[c] = len(issued)
    return PendingFusedReduce(
        issued, drain_upto, plan.final_decode, results, charge
    )
