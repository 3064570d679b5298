"""Correctness tooling for the reproduction: static lint + runtime sanitizer.

The paper's results hinge on communication-layer discipline that plain
unit tests cannot see: every rank must issue bit-identical collective
sequences, FP16 compression-scaling must not overflow unnoticed, RNG use
must flow through explicit seeded generators, and every byte moved must
be attributed to a ledger scope.  This package provides two complementary
checkers:

* :mod:`repro.analysis.lint` — an AST-based lint framework with
  seven project-specific ``REPRO`` rules, run via
  ``python -m repro.cli lint`` / ``make lint`` and enforced on
  ``src/repro`` itself by a tier-1 test;
* :mod:`repro.analysis.sanitizer` — an opt-in runtime hook on the
  :class:`~repro.cluster.communicator.Communicator`'s collective funnel,
  plus checking lossless wire codecs, that detects mismatched per-rank
  collectives, non-finite payloads, collectives outside a ledger scope,
  unbalanced ledger scopes, dropped async work handles, and buffers
  written while their collective is in flight, run via ``python -m
  repro.cli train --sanitize``.
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
    DoubleApplyError,
    DroppedHandleError,
    InFlightMutationError,
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
    "DoubleApplyError",
    "DroppedHandleError",
    "InFlightMutationError",
    "assert_clean_retry_state",
    "sanitize_codec",
]
