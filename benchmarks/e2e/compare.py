#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per workload x metric.

    python3 benchmarks/e2e/compare.py --base runs/a1 runs/a2 runs/a3 \\
                                      --new  runs/b1 runs/b2 runs/b3

Each directory holds the ``result_<workload>_trace0.json`` files one
``run.py --out DIR`` wrote.  For every end-to-end metric of
``BENCHMARK.json`` the table shows both medians, both quartile pairs,
the bound and a verdict:

``better``      every new run reads better than every base run
``unchanged``   the new median is no worse than the base's by more than the bound
``worse``       it is worse by more than the bound
``unresolved``  it is worse by more than the bound, but the run-to-run
                spread exceeds the bound and the two sets interleave

``sim_*`` metrics are deterministic for a fixed seed and op count, so
when both sets ran the same seeds they are compared exactly: any
worsening is ``worse``, whatever the bound.  This is the regression
gate, not a gain claim — a gain needs the ten-pair rule of the
choosing-metrics guide.  Exits non-zero on any ``worse`` and on any
rise in ``failed_op_share``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def load_runs(directories: list[str]) -> dict[str, list[dict]]:
    """workload -> the untraced results found under ``directories``."""
    runs: dict[str, list[dict]] = {}
    for directory in directories:
        for path in sorted(pathlib.Path(directory).glob("result_*_trace0.json")):
            with open(path) as f:
                result = json.load(f)
            runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float,
            exact: bool) -> str:
    """The row's verdict; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0  # worse is positive
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    if exact:
        delta = sign * (n_med - b_med)
        return "worse" if delta > 0 else "better" if delta < 0 else "unchanged"
    if max(sign * v for v in new) < min(sign * v for v in base):
        return "better"
    if sign * (n_med - b_med) <= bound * abs(b_med):
        return "unchanged"
    spread = max((b_q3 - b_q1) / abs(b_med), (n_q3 - n_q1) / abs(n_med))
    interleave = min(sign * v for v in new) <= max(sign * v for v in base)
    return "unresolved" if spread > bound and interleave else "worse"


def _inputs(runs: list[dict]) -> list[tuple[int, int]]:
    """The (seed, op count) pairs a set ran: what fixes every sim value."""
    return sorted((r["environment"]["seed"], r["attempted"]) for r in runs)


def _failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(spec: dict, base: dict, new: dict) -> tuple[list[list[str]], bool]:
    """Table rows and whether anything regressed."""
    rows, regressed = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        if not b_runs or not n_runs:
            rows.append([workload, "(missing from one set)"] + [""] * 6)
            regressed = True
            continue
        same_inputs = _inputs(b_runs) == _inputs(n_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs]
            exact = name.startswith("sim_") and same_inputs
            v = verdict(b, n, metric["better"], metric["bound"], exact)
            regressed |= v == "worse"
            b_q1, b_med, b_q3 = quartiles(b)
            n_q1, n_med, n_q3 = quartiles(n)
            rows.append([
                workload, name, metric["unit"],
                f"{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]",
                f"{n_med:.6g} [{n_q1:.6g}, {n_q3:.6g}]",
                f"{(n_med - b_med) / abs(b_med):+.2%}",
                "exact" if exact else f"{metric['bound']:.0%}",
                v,
            ])
        b_fail, n_fail = _failed_share(b_runs), _failed_share(n_runs)
        rose = n_fail > b_fail
        regressed |= rose
        rows.append([
            workload, "failed_op_share", "ratio", f"{b_fail:.6g}",
            f"{n_fail:.6g}", "", "0", "worse" if rose else "unchanged",
        ])
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="result directories of the parent commit")
    parser.add_argument("--new", nargs="+", required=True,
                        help="result directories of the change")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    rows, regressed = compare(spec, load_runs(args.base), load_runs(args.new))
    header = ["workload", "metric", "unit", "base median [q1, q3]",
              "new median [q1, q3]", "change", "bound", "verdict"]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
