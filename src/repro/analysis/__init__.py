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
* :mod:`repro.analysis.sanitizer` — an opt-in runtime wrapper around
  :class:`~repro.cluster.communicator.Communicator` and the FP16 wire
  codec that detects mismatched per-rank collectives, compression
  overflow (with a counterexample), unbalanced ledger scopes, dropped
  async work handles, and cross-rank issue-order mismatches, run via
  ``python -m repro.cli train --sanitize``;
* :mod:`repro.analysis.spmd` — the interprocedural call-graph + taint
  layer behind rules REPRO010–012 and ``python -m repro.cli
  verify-spmd`` (its dynamic twin, the
  :class:`~repro.cluster.lockstep.LockstepVerifier`, lives in
  :mod:`repro.cluster` to avoid an import cycle).
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
