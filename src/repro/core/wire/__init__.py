"""Pluggable wire-compression stack for the simulated comm layer.

Generalizes the single §III-C :class:`~repro.core.compression.Fp16Codec`
into a table of codecs with distinct roles:

* :mod:`~repro.core.wire.codecs` — lossless, self-delimiting integer
  frame codecs (delta-bitpack, canonical-Huffman entropy) for the
  uniqueness exchange's Θ(G·K) index ALLGATHER;
* :mod:`~repro.core.wire.registry` — the fixed name -> codec table;
* :mod:`~repro.core.wire.cost` — per-codec throughput constants and the
  compression crossover inequality;
* :mod:`~repro.core.wire.adaptive` — per-message codec selection from
  size, dtype, and a sampled compressibility estimate;
* :mod:`~repro.core.wire.transfer` — the encoded allgather, its encode
  and decode charged on the two-stream timeline;
* :mod:`~repro.core.wire.fused` — the fused compress-reduce collective
  (compressed ring allreduce, summed in the wire domain);
* :mod:`~repro.core.wire.policy` — the :class:`WirePolicy` object the
  trainer/CLI hand down (``--wire-codec``).

See ``docs/COMPRESSION.md`` for the codec zoo and the cost model.
"""

from .adaptive import AdaptiveCodecSelector
from .codecs import (
    DELTA_BLOCK,
    FRAME_HEADER_BYTES,
    DeltaBitpackCodec,
    EntropyCodec,
    LosslessIntCodec,
    decode_frames,
)
from .cost import (
    DEFAULT_CODEC_THROUGHPUTS,
    CodecThroughput,
    codec_throughput,
    compressed_transfer_seconds,
    slowest_throughput,
)
from .fused import (
    FusedReducePlan,
    PendingFusedReduce,
    icompressed_allreduce,
    plan_fused_reduce,
)
from .policy import WirePolicy
from .registry import available_codecs, make_codec
from .transfer import PendingEncodedGather, iencoded_allgather, wire_instruments

__all__ = [
    "AdaptiveCodecSelector",
    "CodecThroughput",
    "DEFAULT_CODEC_THROUGHPUTS",
    "DELTA_BLOCK",
    "DeltaBitpackCodec",
    "EntropyCodec",
    "FRAME_HEADER_BYTES",
    "FusedReducePlan",
    "LosslessIntCodec",
    "PendingEncodedGather",
    "PendingFusedReduce",
    "WirePolicy",
    "available_codecs",
    "codec_throughput",
    "compressed_transfer_seconds",
    "decode_frames",
    "icompressed_allreduce",
    "iencoded_allgather",
    "plan_fused_reduce",
    "slowest_throughput",
    "wire_instruments",
    "make_codec",
]
