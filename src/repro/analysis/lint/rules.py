"""The core rule set, ``REPRO001``–``REPRO009``.

The SPMD collective-matching rules ``REPRO010``–``REPRO012`` live in
:mod:`.spmd_rules` (they need the taint layer of
:mod:`repro.analysis.spmd`).  Definitions here are kept sorted by rule
id — registration order is the registry's iteration order, and the
ID-ordering test in ``tests/analysis/test_lint_engine.py`` enforces it.

Each rule guards an invariant the paper's experiments depend on; the
rationale strings say which section breaks when the rule is violated.
Rules are registered into :data:`~repro.analysis.lint.engine.RULE_REGISTRY`
on import and run by default from ``python -m repro.cli lint``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from .engine import Finding, ModuleSource, Rule, register

__all__ = [
    "BareGlobalRngRule",
    "CollectiveOutsideScopeRule",
    "DroppedWorkHandleRule",
    "DtypeDefaultRule",
    "ExportsDriftRule",
    "Float64IntoCommRule",
    "PrintInLibraryRule",
    "TelemetryBypassRule",
    "UncodedCollectivePayloadRule",
]

_NUMPY_ALIASES = {"np", "numpy"}

#: Blocking entry points of the communicator's collective funnel.  Rules
#: match on the method name, so the axis-addressed form
#: ``comm.axis("tensor").allreduce(...)`` is covered like the flat one.
_COLLECTIVES = {"allreduce", "allgather", "reduce_scatter", "transfer"}

#: The non-blocking entry points (return a WorkHandle / pending object),
#: plus the async entry points of the core layer built on them.
_ASYNC_COLLECTIVES = {
    "iallreduce",
    "iallgather",
    "ireduce_scatter",
    "issue_scheduled",
    "iunique_exchange",
    "iexchange",
    "iencoded_allgather",
}

#: Funnel steps with nothing for a codec to compress: a transfer has no
#: payload and a scheduled step is costed from already-encoded sizes.
_PRE_COSTED = {"iencoded_allgather", "issue_scheduled", "transfer"}


def _attr_chain(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_np_attr(node: ast.AST, *names: str) -> bool:
    """True when ``node`` is ``np.<name>``/``numpy.<name>`` for any name."""
    chain = _attr_chain(node)
    if chain is None:
        return False
    root, _, rest = chain.partition(".")
    return root in _NUMPY_ALIASES and rest in names


@register
class BareGlobalRngRule(Rule):
    """REPRO001: randomness must flow through explicit generators."""

    rule_id = "REPRO001"
    title = "bare global RNG"
    rationale = (
        "The seeding experiments (paper §III-B) assign every rank a seed "
        "group; np.random.* calls on the hidden global state bypass that "
        "assignment and silently decouple ranks. Use an explicit "
        "np.random.Generator (np.random.default_rng(seed))."
    )

    #: Explicitly-seeded constructors that are the *fix*, not the bug.
    ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "MT19937",
            "SFC64",
        }
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                chain = _attr_chain(node)
                if chain is None:
                    continue
                parts = chain.split(".")
                if (
                    len(parts) == 3
                    and parts[0] in _NUMPY_ALIASES
                    and parts[1] == "random"
                    and parts[2] not in self.ALLOWED
                ):
                    yield self.finding(
                        module,
                        node,
                        f"global-state RNG `{chain}`: pass an explicit "
                        "np.random.Generator (np.random.default_rng(seed)) "
                        "so the rank's seed group controls the stream",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name != "*" and alias.name not in self.ALLOWED:
                            yield self.finding(
                                module,
                                node,
                                f"`from numpy.random import {alias.name}` "
                                "imports the global-state API; import an "
                                "explicit Generator constructor instead",
                            )


@register
class Float64IntoCommRule(Rule):
    """REPRO002: no float64 payloads at communicator/codec call sites."""

    rule_id = "REPRO002"
    title = "float64 into a communication path"
    rationale = (
        "Wire volumes in Tables III-V assume FP32 payloads (halved to "
        "FP16 by §III-C compression). A float64 array entering a "
        "collective doubles every byte count silently. Cast to "
        "repro.nn.DTYPE before the comm boundary."
    )

    _CALLEES = _COLLECTIVES | _ASYNC_COLLECTIVES | {"encode"}

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in self._CALLEES:
                continue
            consumed: set[int] = set()
            for sub in self._iter_arg_nodes(node):
                if id(sub) in consumed:
                    continue
                hit = self._float64_use(sub)
                if hit is not None:
                    if isinstance(sub, ast.Call):
                        # Don't double-report the np.float64 inside an
                        # already-flagged astype(...) call.
                        consumed.update(id(n) for n in ast.walk(sub))
                    yield self.finding(
                        module,
                        sub,
                        f"{hit} flows into `.{node.func.attr}(...)`: comm "
                        "payloads are FP32/FP16 — cast with "
                        ".astype(repro.nn.DTYPE) before the boundary",
                    )

    @staticmethod
    def _iter_arg_nodes(call: ast.Call) -> Iterator[ast.AST]:
        for arg in call.args:
            yield from ast.walk(arg)
        for kw in call.keywords:
            yield from ast.walk(kw.value)

    @staticmethod
    def _float64_use(node: ast.AST) -> str | None:
        if isinstance(node, ast.Attribute) and _is_np_attr(node, "float64"):
            return "np.float64"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and any(
                _is_np_attr(a, "float64")
                for a in list(node.args)
                + [kw.value for kw in node.keywords]
            )
        ):
            return "astype(np.float64)"
        return None


@register
class CollectiveOutsideScopeRule(Rule):
    """REPRO003: orchestration-level comm must run inside a ledger scope."""

    rule_id = "REPRO003"
    title = "collective outside a ledger scope"
    rationale = (
        "The per-phase cost attribution behind the paper's analysis "
        "(embedding-sync vs dense-allreduce, Tables III-V) only works if "
        "orchestration code issues communication inside "
        "`with ledger.scope(...)`. The comm substrate (cluster/, core/) "
        "and model layers (nn/) issue on behalf of whatever step called "
        "them, inherit its scope, and are exempt — the runtime "
        "sanitizer's require_scope check sits on the collective funnel "
        "and covers them dynamically."
    )

    _CALLEES = _COLLECTIVES | _ASYNC_COLLECTIVES | {"sync_replicas"}

    def applies_to(self, path: Path) -> bool:
        parts = set(path.parts)
        return not parts & {"cluster", "core", "analysis", "nn"}

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        yield from self._walk(module, module.tree, in_scope=False)

    def _walk(
        self, module: ModuleSource, node: ast.AST, in_scope: bool
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            entered = in_scope or any(
                isinstance(item.context_expr, ast.Call)
                and isinstance(item.context_expr.func, ast.Attribute)
                and item.context_expr.func.attr == "scope"
                for item in node.items
            )
            for child in ast.iter_child_nodes(node):
                yield from self._walk(module, child, entered)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._CALLEES
            and not in_scope
        ):
            yield self.finding(
                module,
                node,
                f"`.{node.func.attr}(...)` issued outside any "
                "`with ledger.scope(...)` block: its cost lands in the "
                "unattributed bucket",
            )
        for child in ast.iter_child_nodes(node):
            yield from self._walk(module, child, in_scope)


@register
class DtypeDefaultRule(Rule):
    """REPRO004: nn/ dtype defaults name the canonical constants."""

    rule_id = "REPRO004"
    title = "raw or mutable default in nn/ signatures"
    rationale = (
        "The NN stack standardizes on repro.nn.dtypes.DTYPE (FP32, the "
        "paper's hardware) with ACC_DTYPE for exactness paths; a literal "
        "np.float64 default re-pins one signature and drifts the stack. "
        "Mutable defaults are shared across calls and corrupt replicas."
    )

    _FLOAT_NAMES = ("float16", "float32", "float64")

    def applies_to(self, path: Path) -> bool:
        return "nn" in path.parts

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_args(
                module,
                node.args.args[len(node.args.args) - len(node.args.defaults):],
                node.args.defaults,
            )
            yield from self._check_args(
                module,
                [
                    a
                    for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if d is not None
                ],
                [d for d in node.args.kw_defaults if d is not None],
            )

    def _check_args(
        self, module: ModuleSource, args: list[ast.arg], defaults: list[ast.expr]
    ) -> Iterator[Finding]:
        for arg, default in zip(args, defaults):
            if arg.arg == "dtype" and _is_np_attr(default, *self._FLOAT_NAMES):
                yield self.finding(
                    module,
                    default,
                    f"dtype default `{_attr_chain(default)}`: use "
                    "repro.nn.dtypes.DTYPE (or ACC_DTYPE for accumulation "
                    "paths) so the stack re-pins in one place",
                )
            elif isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in {"list", "dict", "set"}
            ):
                yield self.finding(
                    module,
                    default,
                    f"mutable default for `{arg.arg}`: one instance is "
                    "shared across every call (and every replica) — "
                    "default to None and construct inside",
                )


@register
class ExportsDriftRule(Rule):
    """REPRO005: every module declares __all__ and it names real bindings."""

    rule_id = "REPRO005"
    title = "missing or drifting __all__"
    rationale = (
        "__all__ is the published API contract the docs and the "
        "re-export chain (repro.core, repro.cluster) rely on; a missing "
        "declaration hides drift, and a stale entry breaks "
        "`from module import *` consumers at import time."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        all_node = None
        for stmt in module.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__all__"
            ):
                all_node = stmt
                break
        if all_node is None:
            yield Finding(
                path=str(module.path),
                line=1,
                col=0,
                rule_id=self.rule_id,
                message="module does not declare __all__ — the public API "
                "is whatever happens not to start with an underscore",
            )
            return
        if not isinstance(all_node.value, (ast.List, ast.Tuple)):
            return  # dynamically built; nothing to verify statically
        names = []
        for elt in all_node.value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                names.append((elt, elt.value))
        bound = self._bound_names(module.tree)
        if bound is None:
            return  # star-import present; bindings unknowable statically
        for node, name in names:
            if name not in bound:
                yield self.finding(
                    module,
                    node,
                    f"__all__ exports {name!r} but the module never binds "
                    "it — stale entry or missing import",
                )

    @staticmethod
    def _bound_names(tree: ast.Module) -> set[str] | None:
        bound: set[str] = {"__version__", "__doc__"}
        for stmt in tree.body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            bound.add(node.id)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    bound.add(stmt.target.id)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add(alias.asname or alias.name.partition(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        return None
                    bound.add(alias.asname or alias.name)
            elif isinstance(stmt, (ast.If, ast.Try)):
                # Common guarded-import shapes; recurse one level.
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            if alias.name != "*":
                                bound.add(
                                    alias.asname
                                    or alias.name.partition(".")[0]
                                )
                    elif isinstance(
                        sub,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ):
                        bound.add(sub.name)
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            for node in ast.walk(target):
                                if isinstance(node, ast.Name):
                                    bound.add(node.id)
        return bound


@register
class PrintInLibraryRule(Rule):
    """REPRO006: library code never prints."""

    rule_id = "REPRO006"
    title = "print() in library code"
    rationale = (
        "Library output must flow through the CostLedger / returned "
        "report strings so experiment drivers stay machine-readable; a "
        "stray print interleaves with the CLI's table output and breaks "
        "result parsing. Only the CLI layer prints."
    )

    #: Module files allowed to print (the user-facing shell).
    ALLOWED_FILES = frozenset({"cli.py"})

    def applies_to(self, path: Path) -> bool:
        return path.name not in self.ALLOWED_FILES

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    module,
                    node,
                    "print() in library code: record to the CostLedger, "
                    "return a string, or raise — the CLI owns stdout",
                )


@register
class DroppedWorkHandleRule(Rule):
    """REPRO007: async collective work handles must be awaited."""

    rule_id = "REPRO007"
    title = "dropped async work handle"
    rationale = (
        "A WorkHandle from an `i*` collective that is never wait()ed "
        "leaks its scratch allocation for the rest of the run and its "
        "completion never reaches the timeline — overlap measurements "
        "and peak-memory numbers both go quietly wrong. The runtime "
        "counterpart is Sanitizer.finish()'s DroppedHandleError."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for owner, body in self._scopes(module.tree):
            yield from self._check_scope(module, owner, body)

    @staticmethod
    def _scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
        """Module body plus every function body, each its own scope."""
        yield tree, tree.body
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, node.body

    @classmethod
    def _statements(cls, body: list[ast.stmt]) -> Iterator[ast.stmt]:
        """Statements of one scope, not descending into nested scopes."""
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield stmt
            for attr in ("body", "orelse", "finalbody"):
                yield from cls._statements(getattr(stmt, attr, []))
            for handler in getattr(stmt, "handlers", []):
                yield from cls._statements(handler.body)

    @staticmethod
    def _issue_op(node: ast.AST) -> str | None:
        """The `i*` callee name when ``node`` is an async-issue call."""
        if not isinstance(node, ast.Call):
            return None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        else:
            return None
        return name if name in _ASYNC_COLLECTIVES else None

    @staticmethod
    def _name_loaded(owner: ast.AST, name: str) -> bool:
        """Any Load of ``name`` in the scope (closures included)."""
        return any(
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Load)
            for node in ast.walk(owner)
        )

    def _check_scope(
        self, module: ModuleSource, owner: ast.AST, body: list[ast.stmt]
    ) -> Iterator[Finding]:
        for stmt in self._statements(body):
            if isinstance(stmt, ast.Expr):
                op = self._issue_op(stmt.value)
                if op is not None:
                    yield self.finding(
                        module,
                        stmt,
                        f"`{op}(...)` handle discarded at issue: nothing "
                        "can ever wait() this collective — keep the "
                        "handle, or use the blocking variant",
                    )
                continue
            target = None
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                target = stmt.targets[0].id
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                target = stmt.target.id
            if target is None or stmt.value is None:
                continue
            op = self._issue_op(stmt.value)
            if op is None:
                continue
            # Conservative: any later Load of the name counts as a use
            # (passing the handle on is assumed to lead to a wait).
            if not self._name_loaded(owner, target):
                yield self.finding(
                    module,
                    stmt,
                    f"handle `{target}` from `{op}(...)` is never used in "
                    "its enclosing scope: the collective is issued but "
                    "nothing wait()s it",
                )


@register
class UncodedCollectivePayloadRule(Rule):
    """REPRO008: orchestration-level payloads route through a WireCodec."""

    rule_id = "REPRO008"
    title = "collective payload bypasses the wire-codec stack"
    rationale = (
        "The compression ablations (paper §III-C) only measure what "
        "crosses the wire if every orchestration-level payload passes "
        "through repro.core.wire — a raw comm.allgather(grads) both "
        "skips compression and books logical bytes as wire bytes, "
        "corrupting the ledger's compression_factor. Route payloads via "
        "a codec/wire policy (or declare payload_bytes for pre-encoded "
        "frames). The comm substrate and the codec stack itself "
        "(cluster/, core/, analysis/) move raw bytes by design, as do "
        "model layers (nn/), whose activations cross the tensor axis raw."
    )

    #: Payload-carrying entry points.  Exempt: ``iencoded_allgather``
    #: *is* the codec path, and pre-costed steps carry no raw payload.
    _CALLEES = (_COLLECTIVES | _ASYNC_COLLECTIVES) - _PRE_COSTED

    #: Identifier fragments that signal codec-aware data flow.
    _CODED_TOKENS = ("codec", "wire", "encoded", "frame")

    def applies_to(self, path: Path) -> bool:
        parts = set(path.parts)
        return not parts & {"cluster", "core", "analysis", "nn"}

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = self._callee(node)
            if callee is None:
                continue
            if self._codec_evidence(node):
                continue
            yield self.finding(
                module,
                node,
                f"`{callee}(...)` payload bypasses the wire-codec stack: "
                "pass codec=/wire=, encode the arrays first (declaring "
                "payload_bytes=), or use iencoded_allgather — raw "
                "payloads dodge §III-C compression and mis-book the "
                "ledger's logical/wire byte split",
            )

    @classmethod
    def _callee(cls, node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        else:
            return None
        return name if name in cls._CALLEES else None

    @classmethod
    def _codec_evidence(cls, call: ast.Call) -> bool:
        """Any sign the payload went through (or carries) a codec.

        Accepted evidence: a ``codec=``/``wire=`` keyword (the exchange
        entry points), ``payload_bytes=`` (caller pre-encoded and is
        declaring logical bytes), an ``.encode(...)`` call inside an
        argument, or an identifier mentioning codec/wire/encoded/frame
        anywhere in the arguments.
        """
        for kw in call.keywords:
            if kw.arg in {"codec", "wire", "payload_bytes"}:
                return True
        for arg in call.args:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "encode"
                ):
                    return True
                if isinstance(sub, ast.Name):
                    ident = sub.id.lower()
                elif isinstance(sub, ast.Attribute):
                    ident = sub.attr.lower()
                else:
                    continue
                if any(tok in ident for tok in cls._CODED_TOKENS):
                    return True
        return False


@register
class TelemetryBypassRule(Rule):
    """REPRO009: library code reports through the metrics registry."""

    rule_id = "REPRO009"
    title = "reporting bypasses the telemetry registry"
    rationale = (
        "The unified telemetry layer only gives one consistent answer "
        "(Prometheus text == JSON == ledger totals, exactly) if every "
        "number flows through a MetricsRegistry. Raw sys.stdout/stderr "
        "writes sidestep the structured JSONL stream, poking a metric's "
        "._series internals dodges label validation and the exporters' "
        "canonical ordering, and a Counter/Gauge/Histogram constructed "
        "outside a registry is invisible to every exporter. Ask the "
        "registry (registry.counter(...).inc()) instead."
    )

    #: Metric classes that must be minted by a MetricsRegistry.
    _METRIC_CLASSES = frozenset({"Counter", "Gauge", "Histogram"})

    def applies_to(self, path: Path) -> bool:
        # The telemetry package owns the internals; the CLI owns stdout.
        return "telemetry" not in path.parts and path.name != "cli.py"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        metric_names = self._telemetry_imports(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                chain = (
                    _attr_chain(node.func)
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                if chain in ("sys.stdout.write", "sys.stderr.write"):
                    yield self.finding(
                        module,
                        node,
                        f"`{chain}(...)` in library code: emit through a "
                        "TelemetrySession (record_step/record_event) or "
                        "return the text — raw stream writes bypass the "
                        "structured JSONL telemetry the exporters audit",
                    )
                elif self._bare_metric_ctor(node, metric_names, chain):
                    name = chain or node.func.id  # type: ignore[union-attr]
                    yield self.finding(
                        module,
                        node,
                        f"`{name}(...)` constructed outside a registry: "
                        "metrics minted by hand never reach the exporters "
                        "— use registry.counter/gauge/histogram so the "
                        "family is collected and name-collision checked",
                    )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "_series"
            ):
                yield self.finding(
                    module,
                    node,
                    "`._series` touched outside repro.telemetry: the "
                    "per-label-set state is private — read via .value() "
                    "or export via to_json/to_prometheus_text",
                )

    @classmethod
    def _telemetry_imports(cls, tree: ast.Module) -> set[str]:
        """Local names bound to telemetry metric classes by imports."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if "telemetry" not in module:
                continue
            for alias in node.names:
                if alias.name in cls._METRIC_CLASSES:
                    names.add(alias.asname or alias.name)
        return names

    @classmethod
    def _bare_metric_ctor(
        cls, node: ast.Call, metric_names: set[str], chain: str | None
    ) -> bool:
        if isinstance(node.func, ast.Name):
            return node.func.id in metric_names
        if chain is not None:
            root, _, last = chain.rpartition(".")
            return last in cls._METRIC_CLASSES and "telemetry" in root
        return False
