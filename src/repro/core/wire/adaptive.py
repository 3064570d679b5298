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

The throughput table the crossover test consults can be **learned**:
:meth:`AdaptiveCodecSelector.learn_from_metrics` folds the measured
bytes-per-second of PR-5's ``wire_instruments`` telemetry (via
:func:`repro.core.wire.cost.throughput_from_metrics`) back into
``throughputs``, replacing the static defaults with what this run's
codecs actually achieved.  Learning must stay **rank-deterministic**:
in the SPMD simulator every rank reads the same registry, so every
rank learns the same table and keeps picking the same codec — the
lockstep differential tests pin this.
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
    DEFAULT_CODEC_THROUGHPUTS,
    CodecThroughput,
    codec_throughput,
    compressed_transfer_seconds,
    throughput_from_metrics,
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

    def learn_from_metrics(
        self, registry, codec_names: Sequence[str] | None = None
    ) -> dict[str, CodecThroughput]:
        """Feed measured wire telemetry back into the throughput table.

        For each candidate codec name (every codec this selector can
        pick, unless ``codec_names`` narrows it), recover the measured
        bytes-per-second from the ``repro_wire_*`` counters/histograms
        the wire layer recorded into ``registry``, and install it in
        ``self.throughputs`` — seeded from a copy of the previous table
        (or :data:`~repro.core.wire.cost.DEFAULT_CODEC_THROUGHPUTS`) so
        codecs that saw no traffic keep their prior estimates.  Returns
        the dict of entries actually learned this call.

        Deterministic across ranks by construction: the simulator's
        single metrics registry is shared SPMD state, so the learned
        table — and therefore every subsequent :meth:`select_value` /
        :meth:`select_index` decision — is identical on all ranks.
        """
        if codec_names is None:
            codec_names = tuple(
                c.name for c in self._index_candidates
            ) + (self._fp16.name,)
        table = dict(
            self.throughputs
            if self.throughputs is not None
            else DEFAULT_CODEC_THROUGHPUTS
        )
        learned: dict[str, CodecThroughput] = {}
        for name in codec_names:
            try:
                tp = throughput_from_metrics(registry, name)
            except (ValueError, KeyError):
                continue  # codec recorded no traffic this run
            table[name] = tp
            learned[name] = tp
        self.throughputs = table
        return learned

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
