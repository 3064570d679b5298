"""Adaptive per-message codec selection from the crossover cost model.

``--wire-codec=auto`` routes every collective's payload through
:class:`AdaptiveCodecSelector`, which picks identity / FP16 /
delta-bitpack / run-length per message from three cheap signals:

* **message size** — below ``min_bytes`` the link's latency term
  dominates and codec overhead can only lose;
* **dtype** — float payloads can take the FP16 value codec (summable on
  the wire, so valid under an allreduce); integer index payloads take a
  lossless frame codec (allgather only — frames cannot be summed);
* **compressibility** — each candidate codec's
  ``estimate_nbytes`` probes a small sample, and the serial crossover
  inequality of :mod:`repro.core.wire.cost` decides whether the
  estimated byte saving pays for the codec time on this fabric.

Selection is made once per collective from the **full per-rank list**
(never per rank): all ranks must put the same wire dtype on a
collective or the run desynchronizes — the runtime sanitizer's dtype
uniformity check enforces exactly that.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ...cluster.collectives import ring_allgather_time
from ...cluster.interconnect import LinkSpec
from ..compression import Fp16Codec, WireCodec
from .codecs import DeltaBitpackCodec, EntropyCodec, RunLengthCodec
from .cost import (
    CodecThroughput,
    codec_throughput,
    compressed_transfer_seconds,
)

__all__ = ["AdaptiveCodecSelector"]


@dataclass
class AdaptiveCodecSelector:
    """Pick a codec per message; None means "send raw".

    Parameters
    ----------
    min_bytes:
        Messages smaller than this (per rank) are never encoded —
        latency-bound transfers cannot amortize codec overhead.
    scale:
        Compression-scaling factor for the FP16 value codec.
    sample:
        Elements probed by the index codecs' size estimators.
    throughputs:
        Optional calibrated throughput table (``codec.name`` ->
        :class:`~repro.core.wire.cost.CodecThroughput`); defaults to the
        deterministic constants.
    """

    min_bytes: int = 4096
    scale: float = 512.0
    sample: int = 1024
    throughputs: dict[str, CodecThroughput] | None = None
    _fp16: Fp16Codec = field(init=False, repr=False)
    _index_candidates: tuple[WireCodec, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.min_bytes < 0:
            raise ValueError("min_bytes must be non-negative")
        self._fp16 = Fp16Codec(self.scale)
        self._index_candidates = (
            DeltaBitpackCodec(),
            RunLengthCodec(),
            EntropyCodec(),
        )

    @property
    def name(self) -> str:
        """Spec-style name ("auto")."""
        return "auto"

    def select_value(
        self, arrays: Sequence[np.ndarray], comm
    ) -> WireCodec | None:
        """Codec for summed *value* traffic (allreduce-compatible).

        Only FP16 qualifies: its wire format sums meaningfully (NCCL's
        half-precision allreduce does the same), while byte-frame
        codecs do not survive an on-wire reduction.
        """
        a = arrays[0]
        if not np.issubdtype(a.dtype, np.floating) or a.dtype == np.float16:
            return None
        if a.nbytes < self.min_bytes:
            return None
        ring, link = comm.ring_size, comm.link
        tp = codec_throughput("fp16", self.throughputs)
        encoded = a.nbytes // 2
        if compressed_transfer_seconds(
            a.nbytes, encoded, ring, link, tp
        ) < _raw_seconds(a.nbytes, ring, link):
            return self._fp16
        return None

    def select_index(
        self, arrays: Sequence[np.ndarray], comm, sorted_payload: bool = True
    ) -> WireCodec | None:
        """Codec for gathered *index* traffic (allgather only).

        Estimates each lossless candidate's encoded size on the largest
        rank's vector (sorted copy when the caller will sort before
        encoding) and keeps the fastest candidate iff it beats sending
        raw int64 under the serial crossover model.
        """
        a = max(arrays, key=lambda x: x.nbytes)
        if a.dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
            return None
        if a.nbytes < self.min_bytes:
            return None
        probe = np.sort(a) if sorted_payload else a
        ring, link = comm.ring_size, comm.link
        raw_s = _raw_seconds(a.nbytes, ring, link)
        best: WireCodec | None = None
        best_s = raw_s
        for codec in self._index_candidates:
            est = codec.estimate_nbytes(probe, sample=self.sample)
            tp = codec_throughput(codec.name, self.throughputs)
            t = compressed_transfer_seconds(a.nbytes, est, ring, link, tp)
            if t < best_s:
                best, best_s = codec, t
        return best


def _raw_seconds(nbytes: int, world: int, link: LinkSpec) -> float:
    """Ring-allgather seconds for an unencoded contribution."""
    return ring_allgather_time(world, nbytes, link)
