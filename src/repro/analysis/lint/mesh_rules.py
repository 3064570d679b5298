"""Mesh-discipline rule, ``REPRO010``.

With the :mod:`repro.cluster.mesh` abstraction in place, code that
partitions or enumerates ranks by hand — ``range(world_size)`` and
friends — is a liability: it bakes in the flat-world assumption that a
hybrid ``(pipe, tensor, data)`` run breaks, and it duplicates the
axis→rank arithmetic :meth:`~repro.cluster.mesh.DeviceMesh.groups`
already centralizes (row-major, last axis fastest — easy to get wrong
by hand).  ``REPRO010`` flags every ``range(...)`` whose bound is
derived from a ``world_size`` so new code reaches for the mesh instead.

Escape hatch
------------
Plenty of rank loops are *legitimately* flat: SPMD driver loops that
charge every simulated rank, per-rank device construction, supervisor
bookkeeping.  Annotate those with ``# mesh-ok: <reason>`` on the
flagged line (or the enclosing ``def`` line); the marker documents
*why* the flat enumeration is correct.  The bare
``# noqa: REPRO010`` also works but records nothing.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from pathlib import Path

from .engine import Finding, ModuleSource, Rule, register

__all__ = ["MeshRankLoopRule", "MESH_OK_MARKER"]

#: The documented suppression marker for deliberate flat rank loops.
MESH_OK_MARKER = "mesh-ok"

_MESH_OK_RE = re.compile(r"#\s*mesh-ok\b")


def _mentions_world_size(node: ast.expr) -> bool:
    """Whether the expression derives from a ``world_size`` value."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "world_size":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "world_size":
            return True
    return False


def _def_lines(tree: ast.Module) -> dict[int, tuple[int, int]]:
    """def lineno -> (body start, body end) for every function."""
    spans: dict[int, tuple[int, int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spans[node.lineno] = (node.lineno, node.end_lineno or node.lineno)
    return spans


@register
class MeshRankLoopRule(Rule):
    """REPRO010: rank partitioning belongs to the device mesh."""

    rule_id = "REPRO010"
    title = "hand-rolled rank enumeration outside the device mesh"
    rationale = (
        "`range(world_size)` hard-codes the flat-world rank layout; on a "
        "hybrid (pipe, tensor, data) mesh the set of peer ranks depends "
        "on the axis, and the row-major axis->rank arithmetic lives in "
        "DeviceMesh.groups()/coords(). Enumerate subgroup members via "
        "the mesh, or annotate a deliberately flat loop (SPMD driver, "
        "device construction, supervisor bookkeeping) with "
        "`# mesh-ok: <reason>`."
    )

    def applies_to(self, path: Path) -> bool:
        # The mesh module IS the sanctioned home of rank arithmetic.
        return not (path.name == "mesh.py" and "cluster" in path.parts)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        marked = frozenset(
            lineno
            for lineno, line in enumerate(module.text.splitlines(), start=1)
            if _MESH_OK_RE.search(line)
        )
        defs = _def_lines(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "range"
                and any(_mentions_world_size(a) for a in node.args)
            ):
                continue
            span = range(node.lineno, (node.end_lineno or node.lineno) + 1)
            if marked.intersection(span):
                continue
            enclosing = [
                d for d, (lo, hi) in defs.items() if lo <= node.lineno <= hi
            ]
            if any(d in marked for d in enclosing):
                continue
            yield self.finding(
                module,
                node,
                "`range(world_size)`-style rank enumeration outside "
                "repro.cluster.mesh: hybrid meshes break the flat-world "
                "assumption — partition ranks with "
                "`mesh.groups(axis)` / `mesh.coords(rank)`, or mark a "
                "deliberate flat loop `# mesh-ok: <reason>`",
            )
