"""Static SPMD collective-matching verification.

The static half of the SPMD verifier (see ``docs/SPMD_VERIFY.md``): a
module-local call graph (:mod:`.callgraph`) and an interprocedural
rank-dependence taint pass (:mod:`.taint`).  The lint rules REPRO010–012
in :mod:`repro.analysis.lint.spmd_rules` are built on these; the dynamic
half is the :class:`~repro.analysis.sanitizer.Sanitizer` on the
collective funnel.
"""

from .callgraph import MODULE_SCOPE, CallGraph, FunctionScope, scope_statements
from .taint import ModuleTaint, is_plan_events_access, is_rank_like

__all__ = [
    "CallGraph",
    "FunctionScope",
    "MODULE_SCOPE",
    "ModuleTaint",
    "is_plan_events_access",
    "is_rank_like",
    "scope_statements",
]
