"""Wire policy: what to compress, with which codec, in which chunks.

:class:`WirePolicy` is the single object configuration layers hand to
the exchange strategies and the gradient synchronizer.  It separates
the two codec roles the comm stack actually has:

* the **value codec** rides an allreduce, so it must produce a wire
  format that sums (identity / FP16);
* the **index codec** rides the uniqueness allgather, so it must
  produce self-delimiting frames that survive concatenation (the
  lossless integer codecs).

Either slot may instead be resolved per message by an
:class:`~repro.core.wire.adaptive.AdaptiveCodecSelector` ("auto").
Spec strings accepted by :meth:`WirePolicy.from_spec`::

    none          no compression anywhere (explicit baseline)
    fp16          FP16 value traffic, raw indices (the paper's §III-C)
    delta         raw values, delta-bitpacked indices
    rle           raw values, run-length indices
    entropy       raw values, entropy-coded (Huffman) indices
    fp16+delta    both (also fp16+rle, fp16+entropy, etc.)
    auto          adaptive per-message selection for both roles
    fp16+auto     fixed FP16 values, adaptively selected index codec

All slots default to None, so a default-constructed policy is inert and
every pre-existing code path is byte-identical with or without one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ..compression import WireCodec
from .adaptive import AdaptiveCodecSelector
from .registry import available_codecs, make_codec

__all__ = ["WirePolicy"]

_VALUE_SPECS = {"identity", "fp16"}
_INDEX_SPECS = {"delta", "rle", "entropy"}


@dataclass(frozen=True)
class WirePolicy:
    """Codec/chunking policy for one training run's wire traffic.

    Attributes
    ----------
    value_codec, index_codec:
        Fixed codecs for the two roles; None sends raw.
    selector:
        Adaptive per-message selector consulted when the corresponding
        fixed codec is None.
    chunk_bytes:
        Chunk size (logical bytes per rank) for the pipelined index
        gather; None disables chunking.
    charge_codec_compute:
        Record encode/decode time on the simulated compute streams
        (default).  Off gives pure byte accounting.
    """

    value_codec: WireCodec | None = None
    index_codec: WireCodec | None = None
    selector: AdaptiveCodecSelector | None = None
    chunk_bytes: int | None = None
    charge_codec_compute: bool = True

    def __post_init__(self) -> None:
        if self.chunk_bytes is not None and self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")

    @classmethod
    def from_spec(
        cls, spec: str, chunk_bytes: int | None = None
    ) -> "WirePolicy":
        """Build a policy from a ``--wire-codec`` spec string."""
        parts = [p.strip() for p in spec.split("+") if p.strip()]
        if not parts:
            raise ValueError("empty wire-codec spec")
        selector = None
        if "auto" in parts:
            # The selector fills every slot no fixed codec claims; only a
            # value codec may sit beside it (the index role is auto's).
            parts.remove("auto")
            if any(p.partition(":")[0] not in _VALUE_SPECS for p in parts):
                raise ValueError(
                    "'auto' can only be combined with a value codec "
                    "(e.g. 'fp16+auto')"
                )
            selector = AdaptiveCodecSelector()
        if parts == ["none"]:
            return cls(chunk_bytes=chunk_bytes)
        value: WireCodec | None = None
        index: WireCodec | None = None
        for part in parts:
            base = part.partition(":")[0]
            if base in _VALUE_SPECS:
                if value is not None:
                    raise ValueError(f"duplicate value codec in spec {spec!r}")
                value = make_codec(part)
            elif base in _INDEX_SPECS:
                if index is not None:
                    raise ValueError(f"duplicate index codec in spec {spec!r}")
                index = make_codec(part)
            else:
                raise ValueError(
                    f"unknown wire-codec {part!r}; expected none, auto, or "
                    f"'+'-joined names from: {', '.join(available_codecs())}"
                )
        return cls(
            value_codec=value,
            index_codec=index,
            selector=selector,
            chunk_bytes=chunk_bytes,
        )

    @property
    def is_inert(self) -> bool:
        """True when the policy can never alter any payload."""
        return (
            self.value_codec is None
            and self.index_codec is None
            and self.selector is None
            and self.chunk_bytes is None
        )

    def resolve_value_codec(
        self, arrays: Sequence[np.ndarray], comm
    ) -> WireCodec | None:
        """Codec for one allreduce payload (fixed slot, else selector)."""
        if self.value_codec is not None:
            return self.value_codec
        if self.selector is not None:
            return self.selector.select_value(arrays, comm)
        return None

    def resolve_index_codec(
        self,
        arrays: Sequence[np.ndarray],
        comm,
        sorted_payload: bool = True,
    ) -> WireCodec | None:
        """Codec for one index-allgather payload."""
        if self.index_codec is not None:
            return self.index_codec
        if self.selector is not None:
            return self.selector.select_index(
                arrays, comm, sorted_payload=sorted_payload
            )
        return None

    def sanitized(self) -> "WirePolicy":
        """A copy whose fixed codecs are wrapped by the runtime sanitizer.

        Imported lazily: ``repro.analysis`` sits above ``repro.core`` in
        the layering, so the dependency must not be at module level.
        """
        from ...analysis.sanitizer import sanitize_codec

        return replace(
            self,
            value_codec=sanitize_codec(self.value_codec),
            index_codec=sanitize_codec(self.index_codec),
        )
