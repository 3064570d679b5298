"""Shared benchmark fixtures: result output directory and report helper."""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: Where a ``REPRO_BENCH_FAST=1`` (smoke) run writes its figures instead:
#: a git-ignored directory, so a smoke run never overwrites the committed
#: full-size result files.
FAST_RESULTS_DIR = RESULTS_DIR / "fast"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    out = FAST_RESULTS_DIR if os.environ.get("REPRO_BENCH_FAST") else RESULTS_DIR
    out.mkdir(parents=True, exist_ok=True)
    return out


@pytest.fixture
def report(results_dir):
    """Print a report block and persist it under :func:`results_dir`."""

    def _report(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _report


@pytest.fixture
def bench_metrics(results_dir, request):
    """A telemetry registry persisted as ``BENCH_<name>.json`` at teardown.

    Benchmarks publish their headline figures (gates, measured factors,
    calibrated throughputs) as gauges/counters; whatever ends up in the
    registry is exported with :func:`repro.telemetry.to_json` so result
    files share the exact-value format of ``train --telemetry-dir``.
    """
    import json

    from repro.telemetry import MetricsRegistry, to_json

    registry = MetricsRegistry()
    yield registry
    if not len(registry):
        return
    name = request.node.name
    if name.startswith("test_"):
        name = name[len("test_"):]
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(to_json(registry), indent=2) + "\n")


@pytest.fixture
def save_structured(results_dir):
    """Persist a table as CSV + JSON next to the text reports."""

    def _save(name: str, headers, rows, meta=None) -> None:
        from repro.report import write_results

        write_results(results_dir, name, headers, rows, meta=meta)

    return _save
