"""The *compression* technique (Section III-C): FP16 wire format with
compression-scaling.

Gradients are communicated as IEEE half-precision: each FP32/FP64 tensor
is multiplied by a scale factor ``F``, down-cast to FP16 for the wire,
and divided by ``F`` after up-casting on receipt.  Scaling shifts small
gradient magnitudes away from the FP16 subnormal/underflow region, which
is what lets the paper report indistinguishable perplexity with half the
communication volume (e.g. word LM epoch-1 perplexity 84.12 vs 84.68).

The codecs below are *actual* casts — accuracy effects in training
experiments are real IEEE-754 rounding, not a model of it.  A value the
scaling pushes past the FP16 range becomes ``inf``, as it would in the
rank sum of a real FP16 ring; the trainer's post-sync finiteness check
turns that into a skipped step (with a loss scaler) or a
:class:`CompressionOverflowError` (without one).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..cluster.collectives import FusedRun
from ..errors import ReproError

__all__ = [
    "CompressionOverflowError",
    "FP16_MAX",
    "WireCodec",
    "IdentityCodec",
    "Fp16Codec",
    "encode_stacked",
]

#: Largest finite FP16 value; anything larger encodes as ``inf``.
FP16_MAX = float(np.finfo(np.float16).max)


class CompressionOverflowError(ReproError, RuntimeError):
    """FP16 compression-scaling carried a gradient past the FP16 range."""


class WireCodec:
    """Interface: encode an array for the wire, decode on receipt."""

    #: True when ``decode(encode(x))`` is bit-exact for every valid
    #: input (the lossless integer codecs of :mod:`repro.core.wire`).
    lossless: bool = False

    #: True when the encoded size depends on the payload's *values*
    #: rather than only its dtype/shape — such codecs have no constant
    #: wire ratio.
    data_dependent: bool = False

    #: True when encoded tensors may be **summed in the wire domain**:
    #: ``encode`` maps each element to a fixed-position numeric slot
    #: (identity pass-through, FP16 cast), so adding wire tensors is a
    #: well-defined elementwise reduction — the same reduction the
    #: unfused encode→allreduce→decode path already performs.  The
    #: self-delimiting frame codecs are NOT summable — adding two
    #: bitstreams is meaningless — so fused reductions refuse them (see
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

        Summable codecs must report it: a fused reduction sizes its
        wire-domain hops from it (:mod:`repro.core.wire.fused`).
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
        """Scale and down-cast (IEEE: out of range becomes ``inf``)."""
        if not np.issubdtype(arr.dtype, np.floating):
            raise ValueError("codec applies to floating-point tensors")
        with np.errstate(over="ignore"):
            return (arr * self.scale).astype(np.float16)

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
    arrays: Sequence[np.ndarray] | Sequence[FusedRun],
    stacked: dict[str, np.ndarray] | None,
) -> tuple[list, dict[str, np.ndarray] | None]:
    """Every rank's value encode, as ``(per-rank payloads, their blocks)``.

    Value codecs are elementwise, so a fused-run member the caller holds
    as the rows of one ``(world, ...)`` block (``stacked`` maps names to
    blocks, as for :func:`~repro.cluster.collectives.allreduce_arrays`)
    is encoded in one call: the per-rank encodes, already stacked for
    the reduction.  Everything else is the per-rank loop.
    """
    if not isinstance(arrays[0], FusedRun):
        return codec.encode_many(arrays), None
    blocks = {n: codec.encode(b) for n, b in (stacked or {}).items()}
    return [
        FusedRun(
            (n, blocks[n][r] if n in blocks else codec.encode(a))
            for n, a in run.items()
        )
        for r, run in enumerate(arrays)
    ], blocks or None
