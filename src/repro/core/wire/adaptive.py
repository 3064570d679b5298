"""Adaptive per-message codec selection from the crossover cost model.

``--wire-codec=auto`` routes every collective's payload through
:class:`AdaptiveCodecSelector`, which picks raw / FP16 / delta-bitpack
/ entropy per message from three cheap signals:

* **message size** — below 4 KiB per rank the link's latency term
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
from dataclasses import dataclass

import numpy as np

from ..compression import Fp16Codec, WireCodec
from .codecs import DeltaBitpackCodec, EntropyCodec
from .cost import (
    CodecThroughput,
    codec_throughput,
    compressed_transfer_seconds,
)

__all__ = ["AdaptiveCodecSelector"]

#: Per-rank messages smaller than this are never encoded —
#: latency-bound transfers cannot amortize codec overhead.
_MIN_BYTES = 4096

#: The FP16 value codec (default compression-scaling factor).
_FP16 = Fp16Codec()
#: The lossless index codecs ``auto`` probes, in tie-break order.
_INDEX_CANDIDATES: tuple[WireCodec, ...] = (DeltaBitpackCodec(), EntropyCodec())


@dataclass
class AdaptiveCodecSelector:
    """Pick a codec per message; None means "send raw".

    Parameters
    ----------
    throughputs:
        Optional calibrated throughput table (``codec.name`` ->
        :class:`~repro.core.wire.cost.CodecThroughput`); defaults to the
        deterministic constants.
    """

    throughputs: dict[str, CodecThroughput] | None = None

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
        if a.nbytes < _MIN_BYTES:
            return None
        tp = codec_throughput("fp16", self.throughputs)
        encoded_s = compressed_transfer_seconds(
            a.nbytes, _gather_seconds(a.nbytes // 2, comm), comm.ring_size, tp
        )
        if encoded_s < _gather_seconds(a.nbytes, comm):
            return _FP16
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
        if a.nbytes < _MIN_BYTES:
            return None
        probe = np.sort(a) if sorted_payload else a
        best: WireCodec | None = None
        best_s = _gather_seconds(a.nbytes, comm)
        for codec in _INDEX_CANDIDATES:
            est = codec.estimate_nbytes(probe)
            tp = codec_throughput(codec.name, self.throughputs)
            t = compressed_transfer_seconds(
                a.nbytes, _gather_seconds(est, comm), comm.ring_size, tp
            )
            if t < best_s:
                best, best_s = codec, t
        return best


def _gather_seconds(nbytes: int, comm) -> float:
    """The funnel's seconds for a gather of ``nbytes`` on ``comm``'s rings."""
    return comm.collective_time("allgather", nbytes)[0]
