#!/usr/bin/env python
"""Line-coverage floor check with no third-party dependencies.

The container has no ``coverage`` package, so this tool measures line
coverage with the standard library alone:

* **executable lines** come from compiling each target module and walking
  every nested code object's ``co_lines()`` table (code objects whose
  ``def`` line carries a ``pragma: no cover`` comment are excluded, the
  same convention the coverage.py ecosystem uses);
* **executed lines** are collected by a ``sys.settrace`` hook that only
  descends into frames of the target files, keeping the overhead on the
  rest of the suite negligible;
* the tests run in-process via ``pytest.main`` so the trace hook sees
  them.

``--target`` is repeatable and accepts directories (expanded to every
``*.py`` beneath them).  The floor applies to the *aggregate* percentage;
when more than one file is measured the report also breaks out the five
worst-covered files with their missed-line runs, so a passing aggregate
cannot hide one untested module.

Exit status is non-zero when coverage falls below the floor, which is
how ``make test-chaos`` and CI enforce the ISSUE's >= 90% requirement on
the recovery loop.

Usage::

    PYTHONPATH=src python tools/check_coverage.py \
        --target src/repro/train/resilience.py \
        --min-percent 90 \
        tests/train/test_resilience.py

``--functions LOG`` is the dead-code mode.  With a command after ``--``
(a script path or ``-m module``, plus its arguments) it runs that entry
point in-process under a ``sys.setprofile`` hook and appends every
target function it entered to ``LOG``; without one it lists the target
functions (``--target`` defaults to ``src/repro``) that no logged run
entered, and with ``--max-dead N`` fails when there are more than
``N``.  Run each entry point in its own invocation: the hook never
sees child processes.  ``make dead-code`` drives it over every entry
point::

    PYTHONPATH=src python tools/check_coverage.py --functions LOG -- \
        -m repro.cli train --gpus 2 --steps 3 --corpus-tokens 6000
    PYTHONPATH=src python tools/check_coverage.py --functions LOG
"""

from __future__ import annotations

import argparse
import os
import pathlib
import runpy
import sys
import threading

#: How many of the worst-covered files get a per-file miss breakdown.
WORST_FILES_SHOWN = 5


def executable_lines(path: pathlib.Path) -> set[int]:
    """Line numbers that carry executable code in ``path``.

    Walks the compiled module's code-object tree; a code object whose
    first line contains ``pragma: no cover`` is skipped wholesale.
    """
    source = path.read_text()
    source_lines = source.splitlines()
    root = compile(source, str(path), "exec")
    lines: set[int] = set()

    def visit(code) -> None:
        first = code.co_firstlineno
        if 0 < first <= len(source_lines) and (
            "pragma: no cover" in source_lines[first - 1]
        ):
            return
        for _, _, lineno in code.co_lines():
            if lineno is not None and lineno > 0:
                lines.add(lineno)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                visit(const)

    visit(root)
    # The def/class statement of an excluded block still executes at
    # import time; keep only lines that belong to retained code objects.
    return lines


def expand_targets(specs: list[str]) -> list[pathlib.Path]:
    """Resolve ``--target`` values: files stay, directories expand to *.py."""
    out: list[pathlib.Path] = []
    for spec in specs:
        p = pathlib.Path(spec)
        if p.is_dir():
            out.extend(
                f for f in sorted(p.rglob("*.py"))
                if "__pycache__" not in f.parts
            )
        else:
            out.append(p)
    return out


def run_with_trace(
    targets: list[pathlib.Path], pytest_args: list[str]
) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process, recording executed lines of each target."""
    import pytest

    executed: dict[str, set[int]] = {
        str(t.resolve()): set() for t in targets
    }

    def make_local(lines: set[int]):
        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    local_traces = {name: make_local(lines) for name, lines in executed.items()}

    def global_trace(frame, event, arg):
        if event == "call":
            return local_traces.get(frame.f_code.co_filename)
        return None

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        rc = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(rc), executed


def record_functions(log: str, command: list[str]) -> int:
    """Run ``command`` under a profile hook; append entered code to ``log``."""
    entered: set = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    module = command[1] if command[0] == "-m" else None
    sys.argv = command[1:] if module else command
    if module is None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(command[0])))
    rc = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if module:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(command[0], run_name="__main__")
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    with open(log, "a") as out:
        for code in entered:
            out.write(f"{os.path.realpath(code.co_filename)}:{code.co_firstlineno}\n")
    return rc


def never_entered(
    log: str, targets: list[pathlib.Path], ceiling: int | None = None
) -> int:
    """Print every function of ``targets`` that no run in ``log`` entered.

    Returns 1 when there are more than ``ceiling`` of them, else 0.
    """
    seen = set(pathlib.Path(log).read_text().split())
    dead = 0
    for path in targets:
        real = os.path.realpath(path)

        def visit(code) -> None:
            nonlocal dead
            for const in code.co_consts:
                if hasattr(const, "co_qualname") and not const.co_name.startswith("<"):
                    if f"{real}:{const.co_firstlineno}" not in seen:
                        print(f"{path}:{const.co_firstlineno} {const.co_qualname}")
                        dead += 1
                    visit(const)

        visit(compile(path.read_text(), str(path), "exec"))
    print(f"dead-code: {dead} function(s) never entered", file=sys.stderr)
    if ceiling is not None and dead > ceiling:
        print(f"dead-code: more than the ceiling of {ceiling}", file=sys.stderr)
        return 1
    return 0


def _format_runs(missed: list[int], limit: int = 20) -> str:
    """Collapse sorted line numbers into ``a-b`` run notation."""
    runs: list[tuple[int, int]] = []
    start = prev = missed[0]
    for line in missed[1:]:
        if line == prev + 1:
            prev = line
            continue
        runs.append((start, prev))
        start = prev = line
    runs.append((start, prev))
    shown = ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs[:limit])
    if len(runs) > limit:
        shown += f", ... ({len(runs) - limit} more run(s))"
    return shown


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--target", action="append", default=None,
        help="source file or directory whose coverage is gated "
        "(repeatable; default: src/repro/train/resilience.py)",
    )
    parser.add_argument(
        "--min-percent", type=float, default=90.0,
        help="fail below this aggregate line-coverage percentage",
    )
    parser.add_argument(
        "--functions", metavar="LOG", default=None,
        help="dead-code mode: record the functions a command after '--' "
        "enters into LOG, or with no command list those never entered",
    )
    parser.add_argument(
        "--max-dead", type=int, default=None, metavar="N",
        help="dead-code mode: fail when more than N functions were never "
        "entered",
    )
    parser.add_argument(
        "tests", nargs="*", default=None,
        help="pytest arguments selecting the measuring suite "
        "(default: tests/train/test_resilience.py)",
    )
    args = parser.parse_args(argv)
    if args.functions and args.tests:
        return record_functions(args.functions, args.tests)

    default = "src/repro" if args.functions else "src/repro/train/resilience.py"
    specs = args.target or [default]
    missing = [s for s in specs if not pathlib.Path(s).exists()]
    if missing:
        print(f"coverage: target {', '.join(missing)} does not exist",
              file=sys.stderr)
        return 2
    targets = expand_targets(specs)
    if args.functions:
        return never_entered(args.functions, targets, args.max_dead)
    want: dict[pathlib.Path, set[int]] = {}
    for t in targets:
        lines = executable_lines(t)
        if lines:
            want[t] = lines
    if not want:
        print("coverage: no executable lines in any target", file=sys.stderr)
        return 2

    tests = args.tests or ["tests/train/test_resilience.py"]
    rc, executed = run_with_trace(list(want), ["-q", *tests])
    if rc != 0:
        print(f"coverage: measuring suite failed (pytest rc={rc})",
              file=sys.stderr)
        return rc

    per_file: list[tuple[float, pathlib.Path, set[int], list[int]]] = []
    total_want = total_covered = 0
    for t, lines in want.items():
        hit = executed[str(t.resolve())]
        covered = lines & hit
        missed = sorted(lines - hit)
        percent = 100.0 * len(covered) / len(lines)
        per_file.append((percent, t, covered, missed))
        total_want += len(lines)
        total_covered += len(covered)

    percent = 100.0 * total_covered / total_want
    label = (
        str(per_file[0][1]) if len(per_file) == 1
        else f"{len(per_file)} file(s)"
    )
    print(
        f"coverage: {label} {total_covered}/{total_want} executable lines "
        f"({percent:.1f}%), floor {args.min_percent:.0f}%"
    )
    if len(per_file) == 1:
        if per_file[0][3]:
            print(f"coverage: missed lines: {_format_runs(per_file[0][3])}")
    else:
        worst = sorted(per_file, key=lambda e: (e[0], str(e[1])))
        shown = [e for e in worst[:WORST_FILES_SHOWN] if e[3]]
        if shown:
            print(f"coverage: {len(shown)} worst-covered file(s):")
        for file_percent, t, covered, missed in shown:
            print(f"  {t}: {len(covered)}/{len(covered) + len(missed)} "
                  f"({file_percent:.1f}%) — missed {_format_runs(missed, 8)}")
    if percent < args.min_percent:
        print(
            f"coverage: FAIL — {percent:.1f}% is below the "
            f"{args.min_percent:.0f}% floor",
            file=sys.stderr,
        )
        return 1
    print("coverage: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
