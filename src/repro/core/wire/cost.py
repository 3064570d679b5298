"""Per-codec throughput constants and the compression crossover model.

Compression only helps when the wire time it saves exceeds the compute
time it costs — the same argument ZipCCL makes for lossless collective
compression, and the reason the adaptive selector exists.  This module
holds the primitive pieces shared by the selector (which must live in
``core`` below the exchange layer) and the richer pipelined models of
:mod:`repro.perf.codec_model` (which build on them):

* :class:`CodecThroughput` — calibrated encode/decode bytes-per-second
  for one codec, measured against *logical* (pre-encoding) bytes so the
  charge is independent of how well the data compressed;
* :data:`DEFAULT_CODEC_THROUGHPUTS` — deterministic defaults modeling
  accelerator-class (de)compression kernels on the *simulated* GPUs,
  used when no calibration has run.  These are simulated-hardware
  constants, like the interconnect's bandwidth/latency — NOT the speed
  of this repo's numpy reference implementations, which are two orders
  of magnitude slower and would misstate the crossover for the modeled
  cluster.  :func:`repro.perf.codec_model.calibrate_codec_throughput`
  measures the host-numpy values when a table should reflect wall-clock
  reality instead;
* :func:`compressed_transfer_seconds` — the serial (unpipelined) side
  of the crossover inequality
  ``encode + transfer(encoded) + decode < transfer(raw)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ...cluster.collectives import ring_allgather_time
from ...cluster.interconnect import LinkSpec

__all__ = [
    "CodecThroughput",
    "DEFAULT_CODEC_THROUGHPUTS",
    "codec_throughput",
    "compressed_transfer_seconds",
    "slowest_throughput",
]


@dataclass(frozen=True)
class CodecThroughput:
    """Encode/decode throughput of one codec, in logical bytes/second.

    "Logical" means the un-encoded payload size: encoding 8 MB of int64
    indices at ``encode_bps=2e9`` charges 4 ms to the compute stream no
    matter how small the frames came out.
    """

    encode_bps: float
    decode_bps: float

    def __post_init__(self) -> None:
        if self.encode_bps <= 0 or self.decode_bps <= 0:
            raise ValueError("throughputs must be positive")

    def encode_seconds(self, logical_bytes: int) -> float:
        """Compute-stream seconds to encode ``logical_bytes``."""
        return logical_bytes / self.encode_bps

    def decode_seconds(self, logical_bytes: int) -> float:
        """Compute-stream seconds to decode back ``logical_bytes``."""
        return logical_bytes / self.decode_bps


#: Modeled accelerator kernel throughputs, keyed by ``codec.name``.
#: Identity is a device copy; FP16 is one memory-bound vectorized cast;
#: the frame codecs sit in the range nvcomp-style delta/bitpack/RLE
#: cascades report on data-center GPUs — fast enough that against a
#: 16 GB/s inter-node link the codec is never the bottleneck for
#: bandwidth-bound messages, which is the regime where lossless
#: collective compression pays at all.
DEFAULT_CODEC_THROUGHPUTS: dict[str, CodecThroughput] = {
    "identity": CodecThroughput(encode_bps=400e9, decode_bps=400e9),
    "fp16": CodecThroughput(encode_bps=150e9, decode_bps=200e9),
    "delta": CodecThroughput(encode_bps=50e9, decode_bps=80e9),
    "rle": CodecThroughput(encode_bps=80e9, decode_bps=100e9),
    "entropy": CodecThroughput(encode_bps=30e9, decode_bps=40e9),
}


def slowest_throughput(
    throughputs: dict[str, CodecThroughput],
) -> CodecThroughput:
    """The most conservative entry of a throughput table.

    "Slowest" compares each entry's worse direction, so an asymmetric
    codec (fast encode, slow decode) is ranked by its bottleneck.
    """
    if not throughputs:
        raise ValueError("throughput table is empty")
    return min(
        throughputs.values(),
        key=lambda tp: min(tp.encode_bps, tp.decode_bps),
    )


def codec_throughput(
    name: str,
    throughputs: dict[str, CodecThroughput] | None = None,
) -> CodecThroughput:
    """Look up a codec's throughput, falling back to the slowest entry.

    Unknown codecs (e.g. a user-registered one) inherit the slowest
    entry of the table actually in use rather than raising — an
    unmeasured codec should look expensive, not free.  Before the fix
    this fell back to ``DEFAULT_CODEC_THROUGHPUTS["delta"]`` even when a
    *calibrated* table was supplied, silently crediting unknown codecs
    with accelerator-class default speed instead of the calibrated
    table's own worst case.  An empty calibrated table degrades to the
    slowest default.
    """
    table = DEFAULT_CODEC_THROUGHPUTS if throughputs is None else throughputs
    try:
        return table[name]
    except KeyError:
        if not table:
            table = DEFAULT_CODEC_THROUGHPUTS
        return slowest_throughput(table)


@lru_cache(maxsize=4096)
def compressed_transfer_seconds(
    logical_bytes: int,
    encoded_bytes: int,
    world: int,
    link: LinkSpec,
    throughput: CodecThroughput,
) -> float:
    """Serial (unpipelined) time of one encoded ring allgather.

    Every rank encodes its own ``logical_bytes`` contribution, the ring
    moves the encoded frames, and every rank decodes the full gathered
    ``world * logical_bytes``.  The chunked pipelined schedule of
    :func:`repro.perf.codec_model.pipelined_transfer_time` beats this;
    the serial figure is the cheap upper bound the adaptive selector's
    crossover test uses.  Memoized — pure in its (hashable) arguments,
    and the selector re-evaluates the same key for every bucket.
    """
    return (
        throughput.encode_seconds(logical_bytes)
        + ring_allgather_time(world, encoded_bytes, link)
        + throughput.decode_seconds(world * logical_bytes)
    )
