"""Codec table: short stable names to codec factories.

The table maps the short stable names ("identity", "fp16", "delta",
"entropy") to codec factories, so configuration layers (``TrainConfig``,
the CLI's ``--wire-codec``) can name codecs without importing them.
Specs support a single numeric argument after a colon — ``"fp16:256"``
builds ``Fp16Codec(256.0)``, ``"delta:128"`` a 128-delta-block packer.
"""

from __future__ import annotations

from collections.abc import Callable

from ...errors import ConfigError
from ..compression import Fp16Codec, IdentityCodec, WireCodec
from .codecs import DeltaBitpackCodec, EntropyCodec

__all__ = [
    "available_codecs",
    "make_codec",
]

_CODECS: dict[str, Callable[..., WireCodec]] = {
    "delta": lambda block=None: (
        DeltaBitpackCodec(int(block)) if block else DeltaBitpackCodec()
    ),
    "entropy": EntropyCodec,
    "fp16": lambda scale=512.0: Fp16Codec(float(scale)),
    "identity": IdentityCodec,
}


def available_codecs() -> tuple[str, ...]:
    """Codec names, sorted."""
    return tuple(sorted(_CODECS))


def make_codec(spec: str) -> WireCodec:
    """Build a codec from a spec string: ``name`` or ``name:number``.

    The optional numeric argument is passed positionally to the factory
    (``fp16``'s scale, ``delta``'s block size).  An unknown name or a
    bad argument is a :class:`~repro.errors.ConfigError`.
    """
    name, _, arg = spec.partition(":")
    factory = _CODECS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
        )
    if not arg:
        return factory()
    try:
        return factory(int(arg) if arg.lstrip("-").isdigit() else float(arg))
    except ValueError as err:
        raise ConfigError(str(err)) from err
