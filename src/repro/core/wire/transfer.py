"""Codec-encoded index allgather.

Every rank's encode cost is recorded on its *compute* stream, then the
ranks' frames are issued as one allgather on the *comm* stream; at
:meth:`PendingEncodedGather.wait` the gather is completed and its
decode cost recorded.  The ledger charges the encoded frame sizes, with
the logical (pre-codec) bytes riding along as the payload.

Each rank contributes exactly one self-delimiting frame, so the
gathered buffer decodes into per-rank parts that reassemble to each
rank's original vector **in order** — the helper is safe for
order-sensitive consumers (the baseline allgather pairs index order
with value rows), not just for ``np.unique``.
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
            "Per-rank codec encode seconds, per encode",
            labelnames=("codec",),
        ),
        "decode_s": metrics.histogram(
            "repro_wire_decode_seconds",
            "Per-rank codec decode seconds, per decode",
            labelnames=("codec",),
        ),
        "transfer_s": metrics.histogram(
            "repro_wire_transfer_seconds",
            "On-wire seconds of each encoded collective",
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
    """An in-flight encoded allgather.

    Produced by :func:`iencoded_allgather`; :meth:`wait` completes the
    collective, charges decode compute, and returns the same thing a
    raw ``iallgather(...).wait()`` would: for every member of a ring,
    that ring's one read-only member-order concatenation of its decoded
    vectors, original element order.  Idempotent.
    """

    def __init__(
        self,
        comm,
        handle,
        sizes: list[int],
        dtype: np.dtype,
        throughput: CodecThroughput,
        instruments: dict | None = None,
    ):
        self._comm = comm
        self._handle = handle
        self._sizes = sizes
        self._dtype = np.dtype(dtype)
        self._throughput = throughput
        self._instruments = instruments
        self._result: list[np.ndarray] | None = None

    @property
    def scratch_bytes(self) -> int:
        """The per-rank scratch the gather charges."""
        return self._handle.scratch_bytes

    def wait(self) -> list[np.ndarray]:
        """Complete the gather; return allgather-shaped results."""
        if self._result is not None:
            return self._result
        comm = self._comm
        world = comm.world_size
        ins = self._instruments
        sizes = self._sizes
        bufs = self._handle.wait()
        # Rings decode concurrently; the fullest one sets the cost.
        decoded_bytes = self._dtype.itemsize * max(
            sum(sizes[r] for r in ranks) for ranks in comm.groups
        )
        decode_s = self._throughput.decode_seconds(decoded_bytes)
        for rank in range(world):
            comm.timeline.record_compute(rank, decode_s, name="codec:decode")
            if ins is not None:
                ins["decode_s"].observe(decode_s, **ins["labels"])
                ins["decode_bytes"].inc(decoded_bytes, **ins["labels"])

        def assemble(members, ring: int) -> list[np.ndarray]:
            full = decode_frames(bufs[members[0]], self._dtype)
            full.flags.writeable = False
            return [full] * len(members)

        self._result = comm.by_group(range(world), assemble)
        return self._result


def iencoded_allgather(
    comm,
    arrays: Sequence[np.ndarray],
    codec,
    tag: str = "",
    throughput: CodecThroughput | None = None,
) -> PendingEncodedGather:
    """Issue a codec-encoded allgather of per-rank index vectors.

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
        Ledger tag for the collective.
    throughput:
        Codec throughput used to charge encode/decode compute; defaults
        to the :data:`~repro.core.wire.cost.DEFAULT_CODEC_THROUGHPUTS`
        entry for ``codec.name``.
    """
    if len(arrays) != comm.world_size:
        raise ValueError(
            f"got {len(arrays)} per-rank arrays for a "
            f"{comm.world_size}-rank communicator"
        )
    dtype = arrays[0].dtype
    itemsize = dtype.itemsize
    sizes = [int(a.size) for a in arrays]
    tp = throughput if throughput is not None else codec_throughput(codec.name)
    ins = wire_instruments(getattr(comm, "metrics", None), codec.name)
    with comm.timeline.scope(f"wire-{codec.name}"):
        for rank, a in enumerate(arrays):
            encode_s = tp.encode_seconds(a.size * itemsize)
            comm.timeline.record_compute(rank, encode_s, name="codec:encode")
            if ins is not None:
                ins["encode_s"].observe(encode_s, **ins["labels"])
                ins["encode_bytes"].inc(a.size * itemsize, **ins["labels"])
        frames = codec.encode_many(list(arrays))
        handle = comm.iallgather(
            frames, tag=tag, payload_bytes=max(sizes) * itemsize
        )
        if ins is not None:
            ins["frame_bytes"].inc(sum(len(f) for f in frames), **ins["labels"])
            ins["transfer_s"].observe(
                handle.ticket.end - handle.ticket.start, **ins["labels"]
            )
    return PendingEncodedGather(comm, handle, sizes, dtype, tp, ins)
