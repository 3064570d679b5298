"""AST lint framework with the project's REPRO rule set.

Importing this package registers the default rules; see
:mod:`repro.analysis.lint.rules` for what each rule guards and
:mod:`repro.analysis.lint.engine` for how to add one.
"""

from .engine import (
    PARSE_ERROR_ID,
    Finding,
    LintEngine,
    ModuleSource,
    Rule,
    default_rules,
    format_findings,
    iter_rule_classes,
    register,
)
from . import rules  # noqa: F401  (import registers the rule set)

__all__ = [
    "PARSE_ERROR_ID",
    "Finding",
    "LintEngine",
    "ModuleSource",
    "Rule",
    "default_rules",
    "format_findings",
    "iter_rule_classes",
    "register",
    "rules",
]
