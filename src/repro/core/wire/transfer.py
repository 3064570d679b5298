"""Chunked, pipelined, codec-encoded index allgather.

This is the piece that turns compression from a serialized prologue
into an overlappable stage of the transfer.  A large index vector is
split into chunks; for each chunk, every rank's encode cost is recorded
on its *compute* stream and then the chunk's frames are issued as one
allgather on the *comm* stream.  The PR-2 :class:`Timeline` contention
rules do the rest: chunk ``i+1``'s encode runs while chunk ``i`` is on
the wire (a collective starts no earlier than its issuers' compute
clocks, and the shared link serializes chunks in issue order), so the
schedule realizes ``encode(i+1) ∥ transmit(i)`` without any special
machinery.  At :meth:`PendingEncodedGather.wait`, each chunk is
completed and its decode cost recorded — decode of chunk ``i`` likewise
overlaps transmit of chunks ``> i``.

The analytic model of this schedule lives in
:func:`repro.perf.codec_model.pipelined_transfer_time`; the overlap
benchmark gates the two against each other.

Because every rank contributes exactly one self-delimiting frame per
chunk, the gathered buffer decodes into per-rank, per-chunk parts that
reassemble to each rank's original vector **in order** — the helper is
safe for order-sensitive consumers (the baseline allgather pairs index
order with value rows), not just for ``np.unique``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .codecs import decode_frames
from .cost import CodecThroughput, codec_throughput

__all__ = ["PendingEncodedGather", "iencoded_allgather", "wire_instruments"]


def wire_instruments(metrics, codec_name: str):
    """Per-codec wire instruments from a telemetry registry (or ``None``).

    Returns a dict of bound metric handles — encode/decode/transfer
    seconds histograms and encode/decode/frame byte counters, all
    labelled ``codec=<name>`` — or ``None`` when the communicator
    carries no registry.
    """
    if metrics is None:
        return None
    label = {"codec": codec_name}
    return {
        "encode_s": metrics.histogram(
            "repro_wire_encode_seconds",
            "Per-rank codec encode seconds, by chunk",
            labelnames=("codec",),
        ),
        "decode_s": metrics.histogram(
            "repro_wire_decode_seconds",
            "Per-rank codec decode seconds, by chunk",
            labelnames=("codec",),
        ),
        "transfer_s": metrics.histogram(
            "repro_wire_transfer_seconds",
            "On-wire seconds of each encoded chunk collective",
            labelnames=("codec",),
        ),
        "encode_bytes": metrics.counter(
            "repro_wire_encode_bytes_total",
            "Logical bytes pushed through codec encode",
            labelnames=("codec",),
        ),
        "decode_bytes": metrics.counter(
            "repro_wire_decode_bytes_total",
            "Logical bytes recovered by codec decode",
            labelnames=("codec",),
        ),
        "frame_bytes": metrics.counter(
            "repro_wire_frame_bytes_total",
            "Encoded frame bytes put on the wire",
            labelnames=("codec",),
        ),
        "labels": label,
    }


class PendingEncodedGather:
    """An in-flight chunked encoded allgather.

    Produced by :func:`iencoded_allgather`; :meth:`wait` completes the
    chunk collectives in issue order, charges decode compute, and
    returns the same thing a raw ``iallgather(...).wait()`` would: for
    every member of a ring, that ring's one read-only member-order
    concatenation of its decoded vectors, original element order.
    Idempotent.
    """

    def __init__(
        self,
        comm,
        handles: list,
        chunk_sizes: list[list[int]],
        dtype: np.dtype,
        throughput: CodecThroughput | None,
        instruments: dict | None = None,
    ):
        self._comm = comm
        self._handles = handles
        self._chunk_sizes = chunk_sizes
        self._dtype = np.dtype(dtype)
        self._throughput = throughput
        self._instruments = instruments
        self._result: list[np.ndarray] | None = None

    def wait(self) -> list[np.ndarray]:
        """Complete all chunk gathers; return allgather-shaped results."""
        if self._result is not None:
            return self._result
        comm = self._comm
        world = comm.world_size
        ins = self._instruments
        chunk_bufs = []
        for handle, sizes in zip(self._handles, self._chunk_sizes):
            chunk_bufs.append(handle.wait())
            if self._throughput is not None:
                # Rings decode concurrently; the fullest one sets the cost.
                decoded_bytes = self._dtype.itemsize * max(
                    sum(sizes[r] for r in ranks) for ranks in comm.groups
                )
                decode_s = self._throughput.decode_seconds(decoded_bytes)
                for rank in range(world):
                    comm.timeline.record_compute(
                        rank, decode_s, name="codec:decode"
                    )
                    if ins is not None:
                        ins["decode_s"].observe(decode_s, **ins["labels"])
                        ins["decode_bytes"].inc(decoded_bytes, **ins["labels"])

        def assemble(members, ring: int) -> list[np.ndarray]:
            # A raw allgather hands every receiving rank the rank-order
            # concatenation; reassemble the chunk-interleaved wire order
            # back into that contract so callers can swap the two freely.
            per_member: list[list[np.ndarray]] = [[] for _ in members]
            for bufs, sizes in zip(chunk_bufs, self._chunk_sizes):
                decoded = decode_frames(bufs[members[0]], self._dtype)
                bounds = np.cumsum([sizes[r] for r in members])[:-1]
                for parts, part in zip(per_member, np.split(decoded, bounds)):
                    parts.append(part)
            full = np.concatenate(
                [np.concatenate(parts) for parts in per_member]
            )
            full.flags.writeable = False
            return [full] * len(members)

        self._result = comm.by_group(range(world), assemble)
        return self._result


def iencoded_allgather(
    comm,
    arrays: Sequence[np.ndarray],
    codec,
    tag: str = "",
    chunk_bytes: int | None = None,
    throughput: CodecThroughput | None = None,
    charge_compute: bool = True,
) -> PendingEncodedGather:
    """Issue a chunked, codec-encoded allgather of per-rank index vectors.

    Parameters
    ----------
    comm:
        The communicator (root or an axis view).  Wire bytes
        and transfer time are charged from the **encoded** frame sizes;
        the logical (pre-codec) bytes ride along as ``payload_bytes`` so
        the ledger can report the measured compression factor.
    arrays:
        One 1-D int32/int64 vector per rank (ragged lengths allowed).
        Order is preserved end to end; sort beforehand if the consumer
        is order-insensitive and sorted data compresses better.
    codec:
        A frame codec (``decode`` must handle frame concatenation —
        any :class:`~repro.core.wire.codecs.LosslessIntCodec`).
    tag:
        Ledger tag for the chunk collectives.
    chunk_bytes:
        Split each rank's vector into chunks of at most this many
        *logical* bytes, pipelining encode/transmit/decode (see module
        docstring).  None sends one chunk (no pipelining).
    throughput:
        Codec throughput used to charge encode/decode compute; defaults
        to the :data:`~repro.core.wire.cost.DEFAULT_CODEC_THROUGHPUTS`
        entry for ``codec.name``.
    charge_compute:
        When False, no codec compute is recorded on the timeline (pure
        byte-accounting mode).
    """
    if len(arrays) != comm.world_size:
        raise ValueError(
            f"got {len(arrays)} per-rank arrays for a "
            f"{comm.world_size}-rank communicator"
        )
    dtype = arrays[0].dtype
    itemsize = dtype.itemsize
    max_len = max(a.size for a in arrays)
    if chunk_bytes is not None:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        elems = max(1, chunk_bytes // itemsize)
    else:
        elems = max(1, max_len)
    n_chunks = max(1, -(-max_len // elems))
    tp = (
        (throughput if throughput is not None else codec_throughput(codec.name))
        if charge_compute
        else None
    )

    ins = wire_instruments(getattr(comm, "metrics", None), codec.name)
    handles = []
    chunk_sizes: list[list[int]] = []
    with comm.ledger.scope(f"wire-{codec.name}"):
        for c in range(n_chunks):
            lo, hi = c * elems, (c + 1) * elems
            chunks = [a[lo:hi] for a in arrays]
            sizes = [int(ch.size) for ch in chunks]
            if tp is not None:
                for rank, ch in enumerate(chunks):
                    encode_s = tp.encode_seconds(ch.size * itemsize)
                    comm.timeline.record_compute(
                        rank, encode_s, name="codec:encode"
                    )
                    if ins is not None:
                        ins["encode_s"].observe(encode_s, **ins["labels"])
                        ins["encode_bytes"].inc(
                            ch.size * itemsize, **ins["labels"]
                        )
            frames = codec.encode_many(chunks)
            handle = comm.iallgather(
                frames,
                tag=f"{tag}[{c}]" if n_chunks > 1 else tag,
                payload_bytes=max(sizes) * itemsize,
            )
            if ins is not None:
                ins["frame_bytes"].inc(
                    sum(len(f) for f in frames), **ins["labels"]
                )
                ticket = getattr(handle, "ticket", None)
                if ticket is not None:
                    ins["transfer_s"].observe(
                        ticket.end - ticket.start, **ins["labels"]
                    )
            handles.append(handle)
            chunk_sizes.append(sizes)
    return PendingEncodedGather(comm, handles, chunk_sizes, dtype, tp, ins)
