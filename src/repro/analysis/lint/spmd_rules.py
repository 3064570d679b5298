"""SPMD collective-matching rules, ``REPRO010``–``REPRO012``.

These rules ride on the rank-dependence taint analysis of
:mod:`repro.analysis.spmd` to catch the silent-failure class the
simulator cannot exhibit but a real cluster dies on: ranks issuing
*different* collective sequences.  The three rules mirror the three ways
that happens (see ``docs/SPMD_VERIFY.md`` for the full catalog):

``REPRO010``
    A collective, ``wait``, or early exit sits under control flow whose
    condition is rank-dependent — some ranks issue the call, others
    never arrive: deadlock.
``REPRO011``
    A collective's *signature* (``tag``, shape, dtype) is computed
    from a rank-dependent value — every rank arrives, but with
    mismatched envelopes: deadlock or silent corruption.
``REPRO012``
    A buffer handed to an ``i*`` collective is written between issue and
    ``wait()`` — a data race against the in-flight transfer.

Escape hatch
------------
Deliberately rank-divergent code (chaos injection, supervisor-side
recovery) is annotated with ``# spmd-ok: <reason>`` on the flagged
line, on the tainted guard's line, or on the enclosing ``def`` line.
The standard ``# noqa: REPRO01x`` also works but documents nothing —
prefer the marker with a reason.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from pathlib import Path

from ..spmd import FunctionScope, ModuleTaint, scope_statements
from .engine import Finding, ModuleSource, Rule, register
from .rules import _ASYNC_COLLECTIVES, _COLLECTIVES

__all__ = [
    "InFlightBufferMutationRule",
    "RankDivergentControlFlowRule",
    "TaintedCollectiveSignatureRule",
    "SPMD_OK_MARKER",
]

#: The documented suppression marker for intentionally divergent code.
SPMD_OK_MARKER = "spmd-ok"

_SPMD_OK_RE = re.compile(r"#\s*spmd-ok\b")
_DUNDER_RE = re.compile(r"^__.*__$")

#: Calls whose presence makes a function part of the collective schedule.
_COMM_CALLS = (
    _COLLECTIVES
    | _ASYNC_COLLECTIVES
    | {"wait", "wait_all", "sync_replicas"}
)

#: Calls whose argument signature must be rank-uniform.
_SIG_CALLS = _COLLECTIVES | _ASYNC_COLLECTIVES

#: Array constructors/reshapers whose arguments pin a payload's envelope.
_SHAPE_CTORS = frozenset({
    "zeros", "ones", "empty", "full", "reshape", "astype", "view",
})

_MUTATING_METHODS = frozenset({
    "fill", "sort", "partition", "put", "itemset", "setfield",
})


def _callee_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _stmt_expressions(stmt: ast.stmt) -> Iterator[ast.expr]:
    """The expressions attached directly to ``stmt`` (child stmts not)."""
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            yield child


def _calls_in_stmt(stmt: ast.stmt) -> Iterator[ast.Call]:
    for expr in _stmt_expressions(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                yield node


def _root_name(node: ast.expr) -> str | None:
    """The leftmost Name of a subscript/attribute target chain."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _SpmdInfo:
    """Cached per-module analysis shared by the three rules."""

    __slots__ = ("tree", "taint", "spmd_ok_lines")

    def __init__(self, module: ModuleSource):
        self.tree = module.tree
        self.taint = ModuleTaint(module.tree)
        self.spmd_ok_lines = frozenset(
            lineno
            for lineno, line in enumerate(module.text.splitlines(), start=1)
            if _SPMD_OK_RE.search(line)
        )


#: id(tree) -> analysis; the tree reference keeps the key valid.
_INFO_CACHE: dict[int, _SpmdInfo] = {}


def _info(module: ModuleSource) -> _SpmdInfo:
    key = id(module.tree)
    hit = _INFO_CACHE.get(key)
    if hit is not None and hit.tree is module.tree:
        return hit
    info = _SpmdInfo(module)
    if len(_INFO_CACHE) >= 128:
        _INFO_CACHE.clear()
    _INFO_CACHE[key] = info
    return info


def _scope_touches_comm(info: _SpmdInfo, scope: FunctionScope) -> bool:
    """Whether divergence in ``scope`` can desynchronize the schedule.

    True when the scope's subtree issues a comm call, or the scope is a
    method of a class that *defines* comm entry points (a communicator
    wrapper diverging internally desynchronizes every caller).
    """
    for node in ast.walk(scope.node):
        if isinstance(node, ast.Call) and _callee_name(node) in _COMM_CALLS:
            return True
    if scope.class_name is not None:
        methods = info.taint.graph.class_methods.get(scope.class_name, set())
        if methods & _COMM_CALLS:
            return True
    return False


class _SpmdRule(Rule):
    """Shared plumbing: path filter and the ``# spmd-ok`` escape hatch."""

    def applies_to(self, path: Path) -> bool:
        # The analysis package itself manipulates rank identifiers as
        # *data* (it checks other code); everything else is covered.
        return "analysis" not in path.parts

    @staticmethod
    def _suppressed(
        info: _SpmdInfo,
        scope: FunctionScope,
        node: ast.AST,
        guards: tuple[ast.stmt, ...] = (),
    ) -> bool:
        lines = {getattr(node, "lineno", 0)}
        lines.update(g.lineno for g in guards)
        if not scope.is_module:
            lines.add(scope.node.lineno)
        return bool(lines & info.spmd_ok_lines)


@register
class RankDivergentControlFlowRule(_SpmdRule):
    """REPRO010: no collective or early exit under rank-divergent flow."""

    rule_id = "REPRO010"
    title = "collective under rank-divergent control flow"
    rationale = (
        "Every rank must issue the same collective sequence (the paper's "
        "synchronous data-parallel step); a collective, wait, or early "
        "exit guarded by a rank-dependent condition means some ranks "
        "arrive and others never do — on a real cluster that is a "
        "deadlock, in the simulator it is silent corruption. Hoist the "
        "call out of the branch, or annotate a deliberate divergence "
        "with `# spmd-ok: <reason>`."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        info = _info(module)
        for scope in info.taint.graph.scopes:
            if not _scope_touches_comm(info, scope):
                continue
            body = getattr(scope.node, "body", [])
            yield from self._walk(module, info, scope, body, ())

    def _walk(
        self,
        module: ModuleSource,
        info: _SpmdInfo,
        scope: FunctionScope,
        stmts: list[ast.stmt],
        guards: tuple[ast.stmt, ...],
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            new_guards = guards
            if isinstance(stmt, (ast.If, ast.While)) and info.taint.is_tainted(
                stmt.test, scope
            ):
                new_guards = guards + (stmt,)
            if new_guards:
                yield from self._flag(module, info, scope, stmt, new_guards)
            for attr in ("body", "orelse", "finalbody"):
                yield from self._walk(
                    module, info, scope, getattr(stmt, attr, []), new_guards
                )
            for handler in getattr(stmt, "handlers", []):
                yield from self._walk(
                    module, info, scope, handler.body, new_guards
                )

    def _flag(
        self,
        module: ModuleSource,
        info: _SpmdInfo,
        scope: FunctionScope,
        stmt: ast.stmt,
        guards: tuple[ast.stmt, ...],
    ) -> Iterator[Finding]:
        guard_line = guards[-1].lineno
        for call in _calls_in_stmt(stmt):
            name = _callee_name(call)
            if name in _COMM_CALLS and not self._suppressed(
                info, scope, call, guards
            ):
                yield self.finding(
                    module,
                    call,
                    f"`.{name}(...)` under rank-divergent control flow "
                    f"(tainted guard at line {guard_line}): ranks taking "
                    "different branches issue different collective "
                    "sequences — a deadlock on a real cluster. Hoist it "
                    "out of the branch or mark `# spmd-ok: <reason>`",
                )
        if isinstance(
            stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)
        ) and not (
            not scope.is_module and _DUNDER_RE.match(scope.name)
        ):
            if not self._suppressed(info, scope, stmt, guards):
                kind = type(stmt).__name__.lower()
                yield self.finding(
                    module,
                    stmt,
                    f"rank-divergent early exit (`{kind}`) under tainted "
                    f"guard at line {guard_line} in a collective-issuing "
                    "scope: ranks leaving early skip the collectives "
                    "below and the survivors hang. Restructure, or mark "
                    "`# spmd-ok: <reason>`",
                )


@register
class TaintedCollectiveSignatureRule(_SpmdRule):
    """REPRO011: collective signatures must be rank-uniform."""

    rule_id = "REPRO011"
    title = "rank-dependent collective signature"
    rationale = (
        "Matching is by (op, tag, shape, dtype): a tag or payload "
        "shape computed from the rank means every rank shows up to a "
        "*different* collective — mismatched-signature deadlock. At "
        "runtime the Sanitizer rejects a payload whose shape or dtype "
        "differs across a ring (CollectiveMismatchError). Per-rank "
        "payload *values* are fine (that is the data); per-rank "
        "*envelopes* are not."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        info = _info(module)
        for scope in info.taint.graph.scopes:
            for stmt in scope_statements(scope):
                for call in _calls_in_stmt(stmt):
                    name = _callee_name(call)
                    if name in _SIG_CALLS:
                        yield from self._check_call(
                            module, info, scope, call, name
                        )

    def _check_call(
        self,
        module: ModuleSource,
        info: _SpmdInfo,
        scope: FunctionScope,
        call: ast.Call,
        name: str,
    ) -> Iterator[Finding]:
        taint = info.taint
        for kw in call.keywords:
            if kw.arg is None:
                continue
            if taint.is_tainted(kw.value, scope) and not self._suppressed(
                info, scope, call
            ):
                yield self.finding(
                    module,
                    kw.value,
                    f"`{kw.arg}=` argument of `.{name}(...)` is "
                    "rank-dependent: ranks would disagree on the "
                    "collective's signature and never match — derive it "
                    "from rank-uniform state or mark `# spmd-ok: <reason>`",
                )
        for arg in call.args[1:]:
            if taint.is_tainted(arg, scope) and not self._suppressed(
                info, scope, call
            ):
                yield self.finding(
                    module,
                    arg,
                    f"positional argument of `.{name}(...)` is "
                    "rank-dependent: signature fields (tag/shape) "
                    "must be identical on every rank",
                )
        if call.args:
            yield from self._check_payload_envelope(
                module, info, scope, call, name
            )

    def _check_payload_envelope(
        self,
        module: ModuleSource,
        info: _SpmdInfo,
        scope: FunctionScope,
        call: ast.Call,
        name: str,
    ) -> Iterator[Finding]:
        """Tainted shape/dtype constructors inside the payload argument."""
        for sub in ast.walk(call.args[0]):
            if not isinstance(sub, ast.Call):
                continue
            ctor = _callee_name(sub)
            if ctor not in _SHAPE_CTORS:
                continue
            tainted = any(
                info.taint.is_tainted(a, scope) for a in sub.args
            ) or any(
                info.taint.is_tainted(kw.value, scope)
                for kw in sub.keywords
            )
            if tainted and not self._suppressed(info, scope, sub):
                yield self.finding(
                    module,
                    sub,
                    f"payload of `.{name}(...)` built with "
                    f"rank-dependent `{ctor}(...)`: per-rank shard "
                    "shapes/dtypes give each rank a different envelope — "
                    "a mismatched-signature deadlock",
                )


@register
class InFlightBufferMutationRule(_SpmdRule):
    """REPRO012: no writes to a buffer between ``i*`` issue and wait."""

    rule_id = "REPRO012"
    title = "buffer mutated while its collective is in flight"
    rationale = (
        "An `i*` collective captures its payload by reference; writing "
        "to the array before wait() races the (simulated) transfer — on "
        "real hardware the NIC may read either value. The runtime "
        "counterpart is the Sanitizer's issue/wait buffer-hash check "
        "(InFlightMutationError)."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        info = _info(module)
        for scope in info.taint.graph.scopes:
            yield from self._check_scope(module, info, scope)

    def _check_scope(
        self, module: ModuleSource, info: _SpmdInfo, scope: FunctionScope
    ) -> Iterator[Finding]:
        #: handle name -> (issue stmt, op, buffer names)
        open_handles: dict[str, tuple[ast.stmt, str, frozenset[str]]] = {}
        for stmt in scope_statements(scope):
            self._close_waited(stmt, open_handles)
            issued = self._issue_of(stmt)
            if issued is not None:
                handle, op, call = issued
                buffers = frozenset(
                    n.id
                    for arg in call.args
                    for n in ast.walk(arg)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)
                )
                open_handles[handle] = (stmt, op, buffers)
                continue
            yield from self._flag_mutations(
                module, info, scope, stmt, open_handles
            )

    @staticmethod
    def _close_waited(
        stmt: ast.stmt,
        open_handles: dict[str, tuple[ast.stmt, str, frozenset[str]]],
    ) -> None:
        for call in _calls_in_stmt(stmt):
            name = _callee_name(call)
            if name in ("wait_all", "wait_pending", "drain"):
                open_handles.clear()
            elif (
                name == "wait"
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
            ):
                open_handles.pop(call.func.value.id, None)

    @staticmethod
    def _issue_of(
        stmt: ast.stmt,
    ) -> tuple[str, str, ast.Call] | None:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            op = _callee_name(stmt.value)
            if op in _ASYNC_COLLECTIVES:
                return stmt.targets[0].id, op, stmt.value
        return None

    def _flag_mutations(
        self,
        module: ModuleSource,
        info: _SpmdInfo,
        scope: FunctionScope,
        stmt: ast.stmt,
        open_handles: dict[str, tuple[ast.stmt, str, frozenset[str]]],
    ) -> Iterator[Finding]:
        if not open_handles:
            return
        for written, node in self._written_buffers(stmt):
            for handle, (issue, op, buffers) in open_handles.items():
                if written in buffers and not self._suppressed(
                    info, scope, node, (issue,)
                ):
                    yield self.finding(
                        module,
                        node,
                        f"`{written}` written while `{op}(...)` issued at "
                        f"line {issue.lineno} (handle `{handle}`) is in "
                        "flight: the transfer may read either value — "
                        "wait() first, or stage the write into a copy",
                    )

    @staticmethod
    def _written_buffers(
        stmt: ast.stmt,
    ) -> Iterator[tuple[str, ast.AST]]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                if isinstance(stmt, ast.AugAssign):
                    yield target.id, target
            else:
                root = _root_name(target)
                if root is not None:
                    yield root, target
        for call in _calls_in_stmt(stmt):
            name = _callee_name(call)
            if (
                name in _MUTATING_METHODS
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
            ):
                yield call.func.value.id, call
            elif (
                name == "copyto"
                and call.args
                and isinstance(call.args[0], ast.Name)
            ):
                yield call.args[0].id, call
            for kw in call.keywords:
                if kw.arg == "out" and isinstance(kw.value, ast.Name):
                    yield kw.value.id, call
