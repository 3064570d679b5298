"""Rank-dependence taint analysis for the SPMD static verifier.

The simulator runs every rank in one process, so the only way ranks can
diverge is through *values* that depend on the rank: ``comm.rank``
attributes, rank-named parameters, per-rank shard sizes derived from
them, and :class:`~repro.cluster.chaos.FaultPlan` lookups (a fault plan
names the rank it kills, so anything computed from its events is
rank-dependent by construction).  This module computes, per function,
the set of local names that carry such values, plus a
``returns_tainted`` summary so taint flows through intra-module calls.

Deliberate non-sources
----------------------
``for rank in range(world)`` is the simulator's ubiquitous *benign*
idiom: the loop runs on every rank identically, fanning out over the
per-rank array list.  A plain local assignment or loop target therefore
never seeds taint by name alone — only function **parameters** and
**attribute accesses** with rank-like names do, because those are how a
genuinely rank-specific value enters a scope.  Names bound by
comprehensions shadow outer taint for the same reason.

Rank-like names
---------------
An identifier is rank-like when it is exactly ``rank`` or ends in
``_rank`` — except the size-per-rank family (``*_per_rank``) and
topology maps (``*_of_rank``), which are uniform across ranks.
"""

from __future__ import annotations

import ast

from .callgraph import CallGraph, FunctionScope, scope_statements

__all__ = ["ModuleTaint", "is_rank_like", "is_plan_events_access"]

#: Builtins whose result depends on their (possibly tainted) arguments.
_PROPAGATING_BUILTINS = frozenset({
    "abs", "bool", "dict", "divmod", "enumerate", "filter", "float",
    "frozenset", "int", "iter", "len", "list", "map", "max", "min",
    "next", "range", "repr", "reversed", "round", "set", "sorted",
    "str", "sum", "tuple", "zip",
})


_MAX_LOCAL_PASSES = 20
_MAX_GLOBAL_PASSES = 10


def is_rank_like(ident: str) -> bool:
    """Whether ``ident`` names a rank-dependent quantity.

    ``wire_bytes_per_rank`` (a uniform size) and ``group_of_rank`` (a
    uniform topology map) are explicitly *not* rank-like.
    """
    if ident == "rank":
        return True
    return (
        ident.endswith("_rank")
        and not ident.endswith("_per_rank")
        and not ident.endswith("_of_rank")
    )


def _base_ident(node: ast.expr) -> str | None:
    """The identifier immediately to the left of an attribute access."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def is_plan_events_access(node: ast.Attribute) -> bool:
    """Whether ``node`` reads a FaultPlan's event list (``*plan.events``)."""
    if node.attr != "events":
        return False
    base = _base_ident(node.value)
    return base is not None and base.endswith("plan")


def _target_names(target: ast.expr) -> list[str]:
    """Plain names bound by an assignment/loop target (containers skipped)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in target.elts:
            names.extend(_target_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


class ModuleTaint:
    """Taint facts for one module, computed once at construction.

    ``graph.scopes`` afterwards carry the per-scope ``tainted`` name
    sets and ``returns_tainted`` summaries; :meth:`is_tainted` answers
    queries for arbitrary expressions inside a given scope.
    """

    def __init__(self, tree: ast.Module):
        self.graph = CallGraph(tree)
        self._run()

    # -- public query -------------------------------------------------

    def is_tainted(self, expr: ast.expr, scope: FunctionScope) -> bool:
        """Whether ``expr``, evaluated in ``scope``, is rank-dependent."""
        return self._expr(expr, scope, frozenset())

    # -- fixpoint driver ----------------------------------------------

    def _run(self) -> None:
        for scope in self.graph.scopes:
            for param in scope.all_param_names():
                if is_rank_like(param):
                    scope.tainted.add(param)
        for _ in range(_MAX_GLOBAL_PASSES):
            changed = False
            for scope in self.graph.scopes:
                changed |= self._propagate_local(scope)
                changed |= self._propagate_calls(scope)
            if not changed:
                break

    def _propagate_local(self, scope: FunctionScope) -> bool:
        """Run the intra-scope dataflow to a (bounded) fixpoint."""
        changed_any = False
        for _ in range(_MAX_LOCAL_PASSES):
            changed = False
            for stmt in scope_statements(scope):
                changed |= self._transfer(stmt, scope)
            changed_any |= changed
            if not changed:
                break
        return changed_any

    def _transfer(self, stmt: ast.stmt, scope: FunctionScope) -> bool:
        changed = False

        def taint_names(target: ast.expr) -> None:
            nonlocal changed
            for name in _target_names(target):
                if name not in scope.tainted:
                    scope.tainted.add(name)
                    changed = True

        if isinstance(stmt, ast.Assign):
            if self._expr(stmt.value, scope, frozenset()):
                for target in stmt.targets:
                    taint_names(target)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and self._expr(
                stmt.value, scope, frozenset()
            ):
                taint_names(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            if self._expr(stmt.value, scope, frozenset()):
                taint_names(stmt.target)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if self._expr(stmt.iter, scope, frozenset()):
                taint_names(stmt.target)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None and self._expr(
                    item.context_expr, scope, frozenset()
                ):
                    taint_names(item.optional_vars)
        elif isinstance(stmt, ast.Return):
            if (
                not scope.returns_tainted
                and stmt.value is not None
                and self._expr(stmt.value, scope, frozenset())
            ):
                scope.returns_tainted = True
                changed = True

        # Walrus assignments can hide inside any statement's expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                for node in ast.walk(child):
                    if isinstance(node, ast.NamedExpr) and self._expr(
                        node.value, scope, frozenset()
                    ):
                        taint_names(node.target)
        return changed

    def _propagate_calls(self, scope: FunctionScope) -> bool:
        """Flow taint from call-site arguments into resolved callees."""
        changed = False
        for stmt in scope_statements(scope):
            for child in ast.iter_child_nodes(stmt):
                if not isinstance(child, ast.expr):
                    continue
                for node in ast.walk(child):
                    if isinstance(node, ast.Call):
                        changed |= self._flow_into(node, scope)
        return changed

    def _flow_into(self, call: ast.Call, caller: FunctionScope) -> bool:
        callee = self.graph.resolve(call, caller)
        if callee is None or callee.is_module:
            return False
        params = callee.param_names()
        offset = 1 if self.graph.method_skips_self(call, callee) else 0
        changed = False
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            idx = i + offset
            if idx < len(params) and self._expr(arg, caller, frozenset()):
                if params[idx] not in callee.tainted:
                    callee.tainted.add(params[idx])
                    changed = True
        for kw in call.keywords:
            if kw.arg is None:
                continue
            if kw.arg in callee.all_param_names() and self._expr(
                kw.value, caller, frozenset()
            ):
                if kw.arg not in callee.tainted:
                    callee.tainted.add(kw.arg)
                    changed = True
        return changed

    # -- expression taint ---------------------------------------------

    def _expr(
        self,
        node: ast.expr,
        scope: FunctionScope,
        shadow: frozenset[str],
    ) -> bool:
        if isinstance(node, ast.Name):
            return node.id not in shadow and node.id in scope.tainted
        if isinstance(node, ast.Attribute):
            if is_rank_like(node.attr) or is_plan_events_access(node):
                return True
            return self._expr(node.value, scope, shadow)
        if isinstance(node, ast.Call):
            return self._call(node, scope, shadow)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._comprehension(node, scope, shadow)
        if isinstance(node, ast.Lambda):
            return False
        if isinstance(node, ast.Constant):
            return False
        return any(
            self._expr(child, scope, shadow)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        )

    def _call(
        self, node: ast.Call, scope: FunctionScope, shadow: frozenset[str]
    ) -> bool:
        if self._expr(node.func, scope, shadow):
            return True
        callee = self.graph.resolve(node, scope)
        if callee is not None and callee.returns_tainted:
            return True
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _PROPAGATING_BUILTINS
        ):
            return any(
                self._expr(arg, scope, shadow) for arg in node.args
            ) or any(
                self._expr(kw.value, scope, shadow) for kw in node.keywords
            )
        return False

    def _comprehension(
        self, node: ast.expr, scope: FunctionScope, shadow: frozenset[str]
    ) -> bool:
        bound: set[str] = set()
        generators = getattr(node, "generators", [])
        for gen in generators:
            if self._expr(gen.iter, scope, shadow | frozenset(bound)):
                return True
            bound.update(_target_names(gen.target))
        inner = shadow | frozenset(bound)
        for gen in generators:
            if any(self._expr(cond, scope, inner) for cond in gen.ifs):
                return True
        parts = []
        if isinstance(node, ast.DictComp):
            parts = [node.key, node.value]
        else:
            parts = [node.elt]  # type: ignore[attr-defined]
        return any(self._expr(part, scope, inner) for part in parts)
