"""Codec registry: short stable names to codec factories.

The registry maps short stable names ("identity", "fp16", "delta",
"rle") to codec factories, so configuration layers (``TrainConfig``,
the CLI's ``--wire-codec``) can name codecs without importing them.
Specs support a single numeric argument after a colon — ``"fp16:256"``
builds ``Fp16Codec(256.0)``, ``"delta:128"`` a 128-delta-block packer.
"""

from __future__ import annotations

from collections.abc import Callable

from ..compression import Fp16Codec, IdentityCodec, WireCodec
from .codecs import DeltaBitpackCodec, EntropyCodec, RunLengthCodec

__all__ = [
    "available_codecs",
    "make_codec",
    "register_codec",
]

_REGISTRY: dict[str, Callable[..., WireCodec]] = {}


def register_codec(name: str, factory: Callable[..., WireCodec]) -> None:
    """Register a codec factory under a short stable name.

    Re-registering an existing name raises — silently shadowing a
    built-in codec would change what every spec string means.
    """
    if not name or any(c in name for c in "/+:"):
        raise ValueError(
            f"codec name {name!r} invalid: names must be non-empty and "
            "free of '/', '+', ':' (reserved by scopes and spec syntax)"
        )
    if name in _REGISTRY:
        raise ValueError(f"codec {name!r} is already registered")
    _REGISTRY[name] = factory


def available_codecs() -> tuple[str, ...]:
    """Registered codec names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_codec(spec: str) -> WireCodec:
    """Build a codec from a spec string: ``name`` or ``name:number``.

    The optional numeric argument is passed positionally to the factory
    (``fp16``'s scale, ``delta``'s block size).
    """
    name, _, arg = spec.partition(":")
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
        )
    if not arg:
        return factory()
    try:
        value: float | int = int(arg)
    except ValueError:
        value = float(arg)
    return factory(value)


register_codec("identity", IdentityCodec)
register_codec("fp16", lambda scale=512.0: Fp16Codec(float(scale)))
register_codec("delta", lambda block=None: (
    DeltaBitpackCodec(int(block)) if block else DeltaBitpackCodec()
))
register_codec("rle", RunLengthCodec)
register_codec("entropy", EntropyCodec)
