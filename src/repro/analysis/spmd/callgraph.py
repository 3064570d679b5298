"""Per-module call-graph construction for the SPMD static verifier.

The interprocedural taint pass of :mod:`repro.analysis.spmd.taint` needs
to know, for every call site, *which* function in the same module is
being invoked so taint can flow into the callee's parameters and back
out of its return value.  This module builds that map:

* every ``def`` in the module becomes a :class:`FunctionScope` with a
  dotted qualname (``Class.method``, ``outer.inner``);
* the module body itself is a synthetic scope named
  :data:`MODULE_SCOPE`, so top-level statements participate;
* :meth:`CallGraph.resolve` handles the two shapes that matter in this
  codebase — plain ``helper(...)`` calls to module-level functions and
  ``self.method(...)`` / ``cls.method(...)`` calls to methods of the
  caller's own class.  Anything else (imported names, attribute chains
  on other objects) resolves to ``None`` and the taint pass treats it
  conservatively as an opaque call.

The graph is deliberately module-local: the lint engine hands rules one
file at a time, and the repo's collective orchestration is organised so
rank-dependent values rarely cross module boundaries un-renamed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

__all__ = ["CallGraph", "FunctionScope", "MODULE_SCOPE", "scope_statements"]

#: Qualname of the synthetic scope for the module body.
MODULE_SCOPE = "<module>"

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionScope:
    """One function (or the module body) as a unit of analysis."""

    node: ast.AST
    qualname: str
    class_name: str | None = None
    #: Names of local variables the taint pass has marked rank-dependent.
    tainted: set[str] = field(default_factory=set)
    #: Whether any ``return`` expression of this scope is tainted.
    returns_tainted: bool = False

    @property
    def name(self) -> str:
        """The unqualified function name (``qualname``'s last segment)."""
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def is_module(self) -> bool:
        """Whether this is the synthetic module-body scope."""
        return self.qualname == MODULE_SCOPE

    def param_names(self) -> list[str]:
        """Positional-ish parameter names, in declaration order."""
        if not isinstance(self.node, _SCOPE_NODES):
            return []
        a = self.node.args
        return [p.arg for p in (*a.posonlyargs, *a.args)]

    def all_param_names(self) -> list[str]:
        """Every parameter name, including ``*args``/keyword-only/``**kw``."""
        if not isinstance(self.node, _SCOPE_NODES):
            return []
        a = self.node.args
        names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        if a.vararg is not None:
            names.append(a.vararg.arg)
        if a.kwarg is not None:
            names.append(a.kwarg.arg)
        return names


def scope_statements(scope: FunctionScope) -> Iterator[ast.stmt]:
    """Statements of one scope, in source order.

    Descends into control-flow bodies (``if``/``for``/``try``/``with``)
    but **not** into nested function or class definitions — those are
    their own scopes.
    """
    body = getattr(scope.node, "body", [])
    yield from _iter_statements(body)


def _iter_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    for stmt in body:
        if isinstance(stmt, (*_SCOPE_NODES, ast.ClassDef)):
            continue
        yield stmt
        for attr in ("body", "orelse", "finalbody"):
            yield from _iter_statements(getattr(stmt, attr, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _iter_statements(handler.body)


class CallGraph:
    """Module-local function table plus intra-module call resolution."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.scopes: list[FunctionScope] = [
            FunctionScope(node=tree, qualname=MODULE_SCOPE)
        ]
        self.by_qualname: dict[str, FunctionScope] = {
            MODULE_SCOPE: self.scopes[0]
        }
        #: class name -> method names defined directly on the class.
        self.class_methods: dict[str, set[str]] = {}
        self._collect(tree, class_name=None, prefix="")

    def _collect(
        self, node: ast.AST, class_name: str | None, prefix: str
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                qual = f"{prefix}{child.name}"
                scope = FunctionScope(
                    node=child, qualname=qual, class_name=class_name
                )
                self.scopes.append(scope)
                # First definition wins on (rare) redefinitions.
                self.by_qualname.setdefault(qual, scope)
                if class_name is not None:
                    self.class_methods.setdefault(class_name, set()).add(
                        child.name
                    )
                self._collect(child, class_name=None, prefix=qual + ".")
            elif isinstance(child, ast.ClassDef):
                self.class_methods.setdefault(child.name, set())
                self._collect(
                    child, class_name=child.name, prefix=f"{child.name}."
                )
            else:
                self._collect(child, class_name=class_name, prefix=prefix)

    def resolve(
        self, call: ast.Call, caller: FunctionScope
    ) -> FunctionScope | None:
        """The intra-module callee of ``call``, or None when opaque.

        Resolves ``helper(...)`` to a module-level function and
        ``self.method(...)`` / ``cls.method(...)`` to a method of the
        caller's class.  Returns a tuple-free single target — Python's
        single-dispatch call shapes are all this repo uses.
        """
        func = call.func
        if isinstance(func, ast.Name):
            return self.by_qualname.get(func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and caller.class_name is not None
        ):
            return self.by_qualname.get(f"{caller.class_name}.{func.attr}")
        return None

    def method_skips_self(
        self, call: ast.Call, callee: FunctionScope
    ) -> bool:
        """Whether positional args map past an implicit ``self``/``cls``."""
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and callee.class_name is not None
            and bool(callee.param_names())
            and callee.param_names()[0] in ("self", "cls")
        )
