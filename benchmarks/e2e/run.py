#!/usr/bin/env python3
"""One benchmark for the whole simulator: five workloads, two clocks.

    python3 benchmarks/e2e/run.py                       # all workloads, untraced + traced
    python3 benchmarks/e2e/run.py --smoke               # the same, op counts / 10
    python3 benchmarks/e2e/run.py --workload word_flat --seed 3 --seconds 12 --trace 0

With ``--workload`` the run happens in this process and the last stdout
line is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics for ``--trace 0``, the per-layer
metrics for ``--trace 1``.  Without it every workload runs in its own
sequential child process, so ``peak_rss_mb`` and ``setup_s`` are per
workload.  Metric names, units and bounds live in ``BENCHMARK.json``.

Every number names its clock: **host** (what numpy and the interpreter
cost on this box) or **sim** (Timeline / CostLedger seconds and bytes,
deterministic for a fixed seed and op count).  See ``README.md``.
"""

from __future__ import annotations

import os

# One thread of BLAS: must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: Window length the workloads' nominal op counts were sized for.
NOMINAL_SECONDS = 17.0
#: The traced run covers this share of the untraced run's ops, twice
#: (once untraced for the overhead baseline, once traced).
TRACED_SHARE = 1 / 3
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Wall p50 and CPU ms/op further apart than this mark the run disturbed.
DISTURBED_GAP = 0.10

#: span name -> which figures of it are per-layer metrics.
SPAN_METRICS = {
    "data.batch": ("ms", "calls"),
    "train.rank_exec": ("ms", "calls"),
    "nn.batched_exec": ("ms",),
    "core.sync": ("ms", "self_ms"),
    "core.exchange": ("ms",),
    "core.mesh_exchange": ("ms",),
    "core.wire.encode": ("ms",),
    "core.wire.decode": ("ms",),
    "core.wire.fused_reduce": ("ms",),
    "cluster.issue": ("ms",),
    "cluster.wait": ("ms",),
    "cluster.timeline_compute": ("ms",),
    "optim.step": ("ms", "calls"),
    "optim.replicate": ("ms",),
    "telemetry.record": ("ms",),
    "serve.decoder": ("ms", "calls"),
    "serve.lookup": ("ms",),
    "serve.prefill": ("ms",),
    "serve.scheduler": ("ms",),
    "serve.cache": ("ms",),
    "serve.state_rows": ("ms",),
    "serve.sample": ("ms",),
}
#: metrics derived from counters observed at a span's boundary.
DERIVED_FROM = {
    "nn.batched_fallback_share": ("nn.batched_exec",),
    "core.unique_ratio": ("core.exchange", "core.mesh_exchange"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, ops: int) -> dict:
    """Where and on what this result was measured (reproducible snapshot)."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {}
    )
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        },
        "cpu": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "seed": seed,
        "ops": ops,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def timed_setup(workload, seed: int):
    """Build a session and warm it up; returns (session, host seconds)."""
    from workloads import WARMUP_OPS

    start = time.perf_counter()
    session = workload.setup(seed)
    for _ in range(WARMUP_OPS):
        session.op()
    return session, time.perf_counter() - start


def run_ops(session, ops: int, call=None) -> dict:
    """Run ``ops`` ops back to back (closed loop) and time each one."""
    call = call if call is not None else (lambda fn: fn())
    durations, cpu, tokens, failed = [], [], 0, 0
    sim_before = session.sim()
    for _ in range(ops):
        cpu_start, start = time.process_time(), time.perf_counter()
        try:
            n, ok = call(session.op)
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            n, ok = 0, False
        durations.append(time.perf_counter() - start)
        cpu.append(time.process_time() - cpu_start)
        tokens += n
        failed += not ok
    sim_after = session.sim()
    return {
        "durations": durations,
        "cpu": cpu,
        "tokens": tokens,
        "failed": failed,
        "sim": {k: sim_after[k] - sim_before[k] for k in sim_after},
        "sim_peak_bytes_per_rank": sim_after["peak_bytes_per_rank"],
    }


def tail(durations: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(durations)
    if n < 20:
        return {"percentile": None, "ms": None, "n": n}
    ordered = sorted(durations)
    index = n - 11  # ten samples lie strictly beyond it
    return {
        "percentile": round(100.0 * (index + 1) / n, 1),
        "ms": ordered[index] * 1e3,
        "n": n,
    }


def measure_end_to_end(workload, seed: int, ops: int, setup_repeats: int,
                       check_seed: int):
    """The untraced run: every end-to-end metric, then the check."""
    session, first_setup = timed_setup(workload, seed)
    window = run_ops(session, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.check(session, check_seed)  # outside the timed window
    del session
    setups = [first_setup]
    for _ in range(setup_repeats - 1):
        setups.append(timed_setup(workload, seed)[1])

    durations = window["durations"]
    p50_ms = statistics.median(durations) * 1e3
    cpu_ms = statistics.median(window["cpu"]) * 1e3
    sim = window["sim"]
    values = {
        "setup_s": statistics.median(setups),
        "host_ms_per_op_p50": p50_ms,
        "host_cpu_ms_per_op": cpu_ms,
        # Throughput at the median op time: sporadic 20-40 % slow ops on
        # a shared box make total/total unrepeatable (see README).
        "host_tokens_per_s": window["tokens"] / ops / (p50_ms / 1e3),
        "peak_rss_mb": peak_rss_mb,
        "sim_s_per_op": sim["makespan_s"] / ops,
        "sim_wire_bytes_per_rank_per_op": sim["wire_bytes_per_rank"] / ops,
        "sim_peak_bytes_per_rank": window["sim_peak_bytes_per_rank"],
    }
    detail = {
        "samples": ops,
        "host_ms_per_op_tail": tail(durations),
        "disturbed": abs(p50_ms - cpu_ms) > DISTURBED_GAP * cpu_ms,
        "setup_samples_s": setups,
        "op_ms": [d * 1e3 for d in durations],
        "failed_op_share": window["failed"] / ops,
    }
    return values, detail, window["failed"]


def measure_per_layer(workload, seed: int, ops: int, check_seed: int,
                      names: list[str], patch_table=None):
    """The traced run: an untraced baseline window, then a traced one.

    Both windows start from a fresh session of the same seed, so they do
    identical work and their p50 ratio is the tracing overhead.
    """
    from tracing import PATCH_TABLE, Tracer, summarize
    from workloads import WARMUP_OPS

    table = PATCH_TABLE if patch_table is None else patch_table
    baseline, _ = timed_setup(workload, seed)
    base_p50 = statistics.median(run_ops(baseline, ops)["durations"])
    del baseline

    with Tracer() as tracer:
        tracer.install(table)
        session, _ = timed_setup(workload, seed)
        window = run_ops(session, ops, call=tracer.op)
    workload.check(session, check_seed)

    summary = summarize(tracer)
    for entry in tracer.unresolved:
        print(f"warning: patch-table entry {entry} no longer resolves; "
              "its metrics read null", file=sys.stderr)
    unresolved_spans = {
        patch.metric
        for patch in table
        if f"{patch.module}:{patch.attr}" in tracer.unresolved
    }

    # A layer that never runs on this workload reads 0.
    values: dict[str, float | None] = dict.fromkeys(names, 0.0)
    for span, figures in SPAN_METRICS.items():
        for figure in figures:
            if span in unresolved_spans:
                value = None
            elif figure == "calls":
                value = summary["calls"].get(span, 0) / ops
            else:
                source = "self" if figure == "self_ms" else "inclusive"
                value = summary[source].get(span, 0.0) / ops * 1e3
            values[f"{span}_{figure}"] = value

    counters = tracer.counters
    if counters["nn.batched_steps"]:
        values["nn.batched_fallback_share"] = (
            counters["nn.batched_fallbacks"] / counters["nn.batched_steps"]
        )
    if counters["core.rows_offered"]:
        values["core.unique_ratio"] = (
            counters["core.rows_unique"] / counters["core.rows_offered"]
        )
    for name, spans in DERIVED_FROM.items():
        if unresolved_spans.intersection(spans):
            values[name] = None

    sim = window["sim"]
    makespan = sim["makespan_s"]
    values.update({
        "cluster.collective_calls": sim["collectives"] / ops,
        "cluster.allreduce_bytes": sim["allreduce_bytes"] / ops,
        "cluster.allgather_bytes": sim["allgather_bytes"] / ops,
        "cluster.sim_comm_s": sim["comm_s"] / ops,
        "cluster.sim_exposed_comm_s":
            (makespan - sim["compute_busy_max_s"]) / ops,
        "cluster.rank_idle_share": 1.0 - sim["compute_busy_mean_s"] / makespan,
    })
    values.update(session.layer_readout(WARMUP_OPS, ops))
    values[session.self_metric] = summary["root_self"] / ops * 1e3

    traced_p50 = statistics.median(window["durations"])
    values["trace.overhead_share"] = traced_p50 / base_p50 - 1.0
    values["trace.unattributed_share"] = (
        summary["root_self"] / summary["root_total"]
    )
    detail = {
        "samples": ops,
        "untraced_p50_ms": base_p50 * 1e3,
        "traced_p50_ms": traced_p50 * 1e3,
        "unresolved": sorted(tracer.unresolved),
        "failed_op_share": window["failed"] / ops,
        "layer_shares": {
            span: total / summary["root_total"]
            for span, total in sorted(summary["inclusive"].items())
        },
    }
    return values, detail, window["failed"], tracer.spans


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def op_count(workload, seconds: float, trace: int) -> int:
    ops = workload.ops * seconds / NOMINAL_SECONDS
    if trace:
        ops *= TRACED_SHARE
    return max(3, round(ops))


def run_workload(args) -> int:
    try:
        from tracing import SPAN_COLUMNS
        from workloads import WORKLOADS, CheckFailed
    except ImportError as err:
        print(f"cannot import the program under test: {err}", file=sys.stderr)
        return 2
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    ops = op_count(workload, args.seconds, args.trace)
    check_seed = args.seed + 1 if args.break_check else args.seed
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    spans = None
    try:
        if args.trace:
            values, detail, failed, spans = measure_per_layer(
                workload, args.seed, ops, check_seed, list(units)
            )
        else:
            values, detail, failed = measure_end_to_end(
                workload, args.seed, ops, args.setup_repeats, check_seed
            )
    except CheckFailed as err:
        print(f"correctness check failed: {err}", file=sys.stderr)
        return 1

    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        print(f"metric names disagree with BENCHMARK.json: missing "
              f"{missing}, extra {extra}", file=sys.stderr)
        return 3

    result = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": environment(args.seed, ops),
        "correct": True,
        "attempted": ops,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
        "detail": detail,
    }
    print_report(result)
    if args.out is not None:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}_trace{args.trace}"
        with open(out / f"result_{stem}.json", "w") as f:
            json.dump(result, f, indent=1)
        if spans is not None:
            with open(out / f"trace_{workload.name}.json", "w") as f:
                json.dump({"columns": SPAN_COLUMNS, "spans": spans}, f)
    # The contract line: numbers only (an unresolved metric reads 0 here
    # and null in the result file, with the warning above).
    print(json.dumps({
        "correct": True,
        "attempted": ops,
        "failed": failed,
        "metrics": {
            name: {"value": 0.0 if m["value"] is None else m["value"],
                   "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))
    return 0


def print_report(result: dict) -> None:
    env, detail = result["environment"], result["detail"]
    print(f"== {result['workload']}  trace={result['trace']}  "
          f"seed={env['seed']}  ops={env['ops']}  "
          f"commit={env['commit']}  dirty={env['dirty']}")
    print(f"   python {env['python']}  numpy {env['numpy']}  "
          f"blas {env['blas']['name']} {env['blas']['version']} "
          f"x{env['blas']['threads']}  cpu {env['cpu']}  nproc {env['nproc']}")
    absent = []
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if value == 0 and result["trace"]:
            absent.append(name)  # the layer never ran on this workload
            continue
        shown = "null" if value is None else f"{value:.6g}"
        note = ""
        if name == "host_ms_per_op_p50":
            t = detail["host_ms_per_op_tail"]
            note = f"   (n={detail['samples']}"
            if t["ms"] is not None:
                note += f"; tail p{t['percentile']:g} {t['ms']:.4g} ms"
            note += ")"
        print(f"   {name:34s} {shown:>14s} {metric['unit']}{note}")
    if absent:
        print(f"   zero on this workload: {' '.join(absent)}")
    print(f"   {'failed_op_share':34s} {detail['failed_op_share']:>14.6g} ratio")
    if detail.get("disturbed"):
        print("   disturbed: true")


# ---------------------------------------------------------------------------
# all workloads, one child process each
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    spec = load_spec()
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace is None else (args.trace,):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--setup-repeats", str(args.setup_repeats),
            ]
            if args.out is not None:
                command += ["--out", args.out]
            if args.break_check:
                command.append("--break-check")
            child = subprocess.run(command, cwd=ROOT)
            status = status or child.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="window the op counts are scaled to "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics (default with --workload); "
                        "1: per-layer metrics; all workloads run both unless given")
    parser.add_argument("--smoke", action="store_true",
                        help="op counts / 10, one set-up per run")
    parser.add_argument("--out", help="directory for result and trace files")
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS)
    parser.add_argument("--break-check", action="store_true",
                        help="build the reference from another seed; the "
                        "run must then exit non-zero")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.smoke:
        args.seconds = NOMINAL_SECONDS / 10
        args.setup_repeats = 1
    if args.workload is None:
        return run_all(args)
    args.trace = args.trace or 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
