"""The *compression* technique (Section III-C): FP16 wire format with
compression-scaling.

Gradients are communicated as IEEE half-precision: each FP32/FP64 tensor
is multiplied by a scale factor ``F``, down-cast to FP16 for the wire,
and divided by ``F`` after up-casting on receipt.  Scaling shifts small
gradient magnitudes away from the FP16 subnormal/underflow region, which
is what lets the paper report indistinguishable perplexity with half the
communication volume (e.g. word LM epoch-1 perplexity 84.12 vs 84.68).

The codecs below are *actual* casts — accuracy effects in training
experiments are real IEEE-754 rounding, not a model of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FP16_MAX",
    "WireCodec",
    "IdentityCodec",
    "Fp16Codec",
    "encode_stacked",
    "wire_bytes_ratio",
]

#: Largest finite FP16 value; encodes saturate rather than produce inf.
FP16_MAX = float(np.finfo(np.float16).max)
_FP16_MAX = FP16_MAX


class WireCodec:
    """Interface: encode an array for the wire, decode on receipt."""

    #: True when ``decode(encode(x))`` is bit-exact for every valid
    #: input (the lossless integer codecs of :mod:`repro.core.wire`).
    lossless: bool = False

    #: True when the encoded size depends on the payload's *values*
    #: rather than only its dtype/shape — such codecs have no constant
    #: wire ratio and :func:`wire_bytes_ratio` needs a sample.
    data_dependent: bool = False

    #: True when encoded tensors may be **summed in the wire domain**:
    #: ``encode`` maps each element to a fixed-position numeric slot
    #: (identity pass-through, FP16 cast), so adding wire tensors is a
    #: well-defined elementwise reduction — the same reduction the
    #: unfused encode→allreduce→decode path already performs.  The
    #: self-delimiting frame codecs are NOT summable — adding two
    #: bitstreams is meaningless — so fused reductions must
    #: decode/re-encode at each hop boundary instead (see
    #: :mod:`repro.core.wire.fused`).
    summable: bool = False

    def encode(self, arr: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def decode(self, arr: np.ndarray, dtype: np.dtype) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def encode_many(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """One encoded array per input — what a gather ships per member.

        Equal, byte for byte, to ``[encode(a) for a in arrays]``; a codec
        whose set-up amortizes over members (the entropy coder's width
        classification and bit-pack) overrides this instead of ``encode``.
        """
        return [self.encode(a) for a in arrays]

    @property
    def name(self) -> str:
        return type(self).__name__

    def wire_dtype(self, dtype: np.dtype) -> np.dtype | None:
        """Dtype of ``encode`` output for a ``dtype`` input; None if unknown.

        Lets :class:`repro.core.wire.registry.CodecPipeline` chain
        decodes without materializing intermediate arrays first.
        """
        return None


@dataclass(frozen=True)
class IdentityCodec(WireCodec):
    """FP32/FP64 pass-through — the no-compression baseline."""

    #: Pass-through slots sum on the wire trivially.
    summable = True

    def encode(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def decode(self, arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
        return arr.astype(dtype, copy=False)

    @property
    def name(self) -> str:
        """Stable short name for registries and cost tables."""
        return "identity"

    def wire_dtype(self, dtype: np.dtype) -> np.dtype | None:
        """Pass-through: the wire dtype is the input dtype."""
        return np.dtype(dtype)


@dataclass(frozen=True)
class Fp16Codec(WireCodec):
    """FP16 wire format with compression-scaling.

    Parameters
    ----------
    scale:
        Compression-scaling factor ``F`` (paper evaluates 256/512/1024).
        ``scale=1.0`` gives the naive cast whose accuracy loss the
        scaling exists to repair (used as the ablation control).
    """

    scale: float = 512.0

    #: FP16 slots are positional: summing wire tensors is FP16-domain
    #: addition, which the fused reduction path exploits (the *scale*
    #: divides out once at decode since it is uniform across ranks).
    summable = True

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Scale, saturate to the FP16 range, down-cast."""
        if not np.issubdtype(arr.dtype, np.floating):
            raise ValueError("codec applies to floating-point tensors")
        scaled = np.clip(arr * self.scale, -_FP16_MAX, _FP16_MAX)
        return scaled.astype(np.float16)

    def decode(self, arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Up-cast and undo the scaling."""
        if arr.dtype != np.float16:
            raise ValueError("expected an FP16 wire tensor")
        return (arr.astype(dtype) / self.scale).astype(dtype, copy=False)

    @property
    def name(self) -> str:
        """Stable short name for registries and cost tables."""
        return "fp16"

    def wire_dtype(self, dtype: np.dtype) -> np.dtype | None:
        """Everything leaves as FP16."""
        return np.dtype(np.float16)


def encode_stacked(
    codec: WireCodec,
    arrays: Sequence[np.ndarray],
    stacked: np.ndarray | None,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Every rank's value encode, as ``(per-rank arrays, their block)``.

    Value codecs are elementwise, so when the caller holds the ranks'
    arrays as the rows of one ``(world, ...)`` block (``stacked``, as for
    :func:`~repro.cluster.collectives.allreduce_arrays`) a single
    ``encode`` of the block is the per-rank encodes, already stacked for
    the reduction.  Without a block it is the per-rank loop.
    """
    if stacked is None:
        return codec.encode_many(arrays), None
    wire = codec.encode(stacked)
    return list(wire), wire


def wire_bytes_ratio(
    codec: WireCodec,
    dtype: np.dtype = np.dtype(np.float32),
    sample: np.ndarray | None = None,
) -> float:
    """Wire-bytes fraction relative to sending raw tensors.

    For dtype-determined codecs (identity, FP16) the ratio is a constant
    of the formats — 0.5 for FP16 over FP32, the paper's "reduces
    communication by 50%" — and a 1-element probe suffices.

    For *data-dependent* codecs (the lossless integer codecs of
    :mod:`repro.core.wire`) there is no constant: a sorted Zipf index
    vector may shrink 8x while adversarial data hits the raw-fallback
    bound.  Pass a representative ``sample`` and the **measured** ratio
    ``encode(sample).nbytes / sample.nbytes`` is returned; calling
    without one raises instead of reporting a fictitious constant.
    """
    if sample is not None:
        if sample.size == 0:
            raise ValueError("sample must be non-empty to measure a ratio")
        return codec.encode(sample).nbytes / sample.nbytes
    if getattr(codec, "data_dependent", False):
        raise ValueError(
            f"codec {codec.name!r} has a data-dependent wire ratio; pass "
            "a representative sample array to measure it"
        )
    probe = np.zeros(1, dtype=dtype)
    return codec.encode(probe).itemsize / probe.itemsize
