"""One error vocabulary: every exception class :mod:`repro` defines
derives from :class:`ReproError` and keeps the builtin base it had, so
``except ValueError`` (``RuntimeError``, ``MemoryError``) still works.

The two boundary types say where a rejected value came from; checks of
internal invariants stay plain ``ValueError``.
"""

from __future__ import annotations

__all__ = ["ReproError", "ConfigError", "FormatError"]


class ReproError(Exception):
    """Base of every exception :mod:`repro` defines."""


class ConfigError(ReproError, ValueError):
    """A value the caller chose: a config field, a spec, a request field."""


class FormatError(ReproError, ValueError):
    """Bytes or JSON read from outside: a checkpoint, a wire frame, a
    fault plan, trace parts."""
