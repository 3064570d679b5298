"""Correctness tooling for the reproduction: static lint + runtime sanitizer.

The paper's results hinge on communication-layer discipline that plain
unit tests cannot see: every rank must issue bit-identical collective
sequences, FP16 compression-scaling must not silently saturate, RNG use
must flow through explicit seeded generators, and every byte moved must
be attributed to a ledger scope.  This package provides two complementary
checkers:

* :mod:`repro.analysis.lint` — an AST-based lint framework with
  project-specific rules (``REPRO001``–``REPRO012``, the last three
  built on the :mod:`repro.analysis.spmd` rank-dependence taint
  analysis), run via ``python -m repro.cli lint`` / ``make lint`` and
  enforced on ``src/repro`` itself by a tier-1 test;
* :mod:`repro.analysis.sanitizer` — an opt-in runtime hook on the
  :class:`~repro.cluster.communicator.Communicator`'s collective funnel,
  plus checking FP16 and lossless wire codecs, that detects mismatched
  per-rank collectives, compression overflow (with a counterexample),
  unbalanced ledger scopes, dropped async work handles, and buffers
  written while their collective is in flight, run via ``python -m
  repro.cli train --sanitize``;
* :mod:`repro.analysis.spmd` — the interprocedural call-graph + taint
  layer behind rules REPRO010–012 and the static half of ``python -m
  repro.cli verify-spmd`` (its dynamic half is a sanitized
  ``train --resilient`` run).
"""

from .lint import (
    Finding,
    LintEngine,
    ModuleSource,
    Rule,
    default_rules,
    format_findings,
    iter_rule_classes,
)
from .sanitizer import (
    CollectiveMismatchError,
    CompressionOverflowError,
    DoubleApplyError,
    DroppedHandleError,
    InFlightMutationError,
    SanitizedFp16Codec,
    Sanitizer,
    SanitizerError,
    assert_clean_retry_state,
    sanitize_codec,
)

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleSource",
    "Rule",
    "default_rules",
    "format_findings",
    "iter_rule_classes",
    "Sanitizer",
    "SanitizerError",
    "CollectiveMismatchError",
    "CompressionOverflowError",
    "DoubleApplyError",
    "DroppedHandleError",
    "InFlightMutationError",
    "SanitizedFp16Codec",
    "assert_clean_retry_state",
    "sanitize_codec",
]
