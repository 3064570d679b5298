"""The lint engine: rule registry, module loading, noqa, formatting.

The engine is deliberately small: a rule receives a parsed
:class:`ModuleSource` and yields :class:`Finding` objects.  Everything
else — file discovery, ``# noqa`` suppression, ordering, rendering —
lives here so rules stay ~50 lines of pure AST inspection.

Adding a rule
-------------
Subclass :class:`Rule`, set ``rule_id``/``title``/``rationale``,
implement ``check``, and decorate with :func:`register`::

    @register
    class NoEvalRule(Rule):
        rule_id = "REPRO999"
        title = "eval() in library code"
        rationale = "eval hides data flow from every other rule."

        def check(self, module):
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "eval"):
                    yield self.finding(module, node, "eval() is banned")

Suppress a single line with ``# noqa: REPRO999`` (or a bare ``# noqa``
for every rule — use sparingly, it defeats the point).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleSource",
    "PARSE_ERROR_ID",
    "Rule",
    "default_rules",
    "format_findings",
    "iter_rule_classes",
    "register",
]

#: Pseudo-rule id attached to findings for files that fail to parse.
PARSE_ERROR_ID = "REPRO000"

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?", re.IGNORECASE)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass
class ModuleSource:
    """A parsed module handed to each rule.

    ``path`` is kept as given (relative paths render relative), ``text``
    is the raw source, ``tree`` the parsed AST.  ``noqa`` maps line
    numbers to the set of suppressed rule ids (empty set = suppress all).
    """

    path: Path
    text: str
    tree: ast.Module
    noqa: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, text: str | None = None) -> "ModuleSource":
        if text is None:
            text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(path=path, text=text, tree=tree, noqa=_scan_noqa(text))

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.noqa.get(finding.line)
        if codes is None:
            return False
        return not codes or finding.rule_id in codes


def _scan_noqa(text: str) -> dict[int, frozenset[str]]:
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" not in line or "noqa" not in line.lower():
            continue
        m = _NOQA_RE.search(line)
        if m is None:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = frozenset()
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip()
            )
    return out


class Rule:
    """Base class for a lint rule.

    Subclasses set the three class attributes and implement
    :meth:`check`.  ``check`` may assume the module parsed; it yields
    findings (suppression is handled by the engine).
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def applies_to(self, path: Path) -> bool:
        """Whether this rule runs on ``path`` at all (cheap path filter)."""
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


#: rule_id -> rule class, in registration order.
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the default registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set rule_id")
    if cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def iter_rule_classes() -> list[type[Rule]]:
    """All registered rule classes, sorted by rule id."""
    return [RULE_REGISTRY[k] for k in sorted(RULE_REGISTRY)]


def default_rules(only: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the registered rules (optionally a subset by id)."""
    wanted = None if only is None else {c.upper() for c in only}
    if wanted is not None:
        unknown = wanted - set(RULE_REGISTRY)
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
    return [
        cls()
        for rid, cls in sorted(RULE_REGISTRY.items())
        if wanted is None or rid in wanted
    ]


class LintEngine:
    """Run a rule set over files, directories, or in-memory source."""

    def __init__(self, rules: Sequence[Rule] | None = None):
        self.rules = list(rules) if rules is not None else default_rules()

    # -- discovery ----------------------------------------------------------

    @staticmethod
    def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
        for entry in paths:
            p = Path(entry)
            if p.is_dir():
                yield from sorted(
                    f for f in p.rglob("*.py") if "__pycache__" not in f.parts
                )
            else:
                yield p

    # -- linting ------------------------------------------------------------

    def lint_module(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(module.path):
                continue
            for f in rule.check(module):
                if not module.is_suppressed(f):
                    findings.append(f)
        return sorted(findings)

    def lint_source(
        self, text: str, path: str | Path = "<memory>"
    ) -> list[Finding]:
        """Lint raw source text (used heavily by the rule unit tests)."""
        return self.lint_module(ModuleSource.parse(Path(path), text))

    def lint_file(self, path: str | Path) -> list[Finding]:
        p = Path(path)
        try:
            module = ModuleSource.parse(p)
        except SyntaxError as exc:
            line, col = exc.lineno or 1, (exc.offset or 1) - 1
            message = f"file does not parse: {exc.msg}"
        except UnicodeDecodeError as exc:
            line, col = 1, 0
            message = f"file is not UTF-8: {exc.reason} at byte {exc.start}"
        else:
            return self.lint_module(module)
        return [Finding(str(p), line, col, PARSE_ERROR_ID, message)]

    def lint_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        findings: list[Finding] = []
        for p in self.iter_python_files(paths):
            findings.extend(self.lint_file(p))
        return sorted(findings)


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a tally."""
    if not findings:
        return "no findings"
    lines = [f.render() for f in findings]
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule_id] = by_rule.get(f.rule_id, 0) + 1
    tally = ", ".join(f"{rid}: {n}" for rid, n in sorted(by_rule.items()))
    lines.append(f"{len(findings)} finding(s) ({tally})")
    return "\n".join(lines)
