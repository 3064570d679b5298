"""Harness tests: run with ``python -m pytest benchmarks/e2e/tests``.

Not part of tier-1's ``testpaths``.  Every run here goes through the same
code path as the real benchmark at smoke scale (op counts / 10).
"""

import json
import pathlib
import re

import pytest

import compare
import run  # pins BLAS threads and puts src/ on the path at import
from tracing import END, NAME, OP, PARENT, PATCH_TABLE, START, Patch, Tracer, summarize
from workloads import WORKLOADS

E2E = pathlib.Path(run.HERE)
SPEC = run.load_spec()
SMOKE_SECONDS = run.NOMINAL_SECONDS / 10


def smoke(capsys, *extra):
    """(exit code, parsed last stdout line or None, stderr) of one run."""
    code = run.main(["--smoke", *extra])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    last = lines[-1] if lines and lines[-1].startswith("{") else None
    return code, None if last is None else json.loads(last), captured.err


# -- the contract -------------------------------------------------------


def test_benchmark_json_meets_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(
        w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
        for w in SPEC["workloads"]
    )
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert 1 <= SPEC["run_seconds"] <= 60
    # tier-1's test_docs_integrity globs benchmarks/bench_*.py
    assert not list(E2E.rglob("bench_*.py"))


@pytest.mark.parametrize("workload", ["mesh_hybrid", "serve_burst"])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_equal_benchmark_json(capsys, workload, trace):
    code, line, _ = smoke(capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    if not trace:  # end-to-end metrics are never zero
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_broken_check_exits_nonzero_and_prints_no_metrics(capsys):
    code, line, err = smoke(capsys, "--workload", "mesh_hybrid", "--break-check")
    assert code != 0 and line is None
    assert "correctness check failed" in err


# -- determinism of the simulated clock ---------------------------------


def host_clock(name):
    return name.endswith("_ms") or name.startswith(("trace.", "host_")) or name in (
        "setup_s", "peak_rss_mb",
    )


@pytest.mark.parametrize("workload", ["mesh_hybrid", "serve_burst"])
def test_two_smoke_runs_agree_on_every_sim_value_and_count(capsys, workload):
    for trace in ("0", "1"):
        first = smoke(capsys, "--workload", workload, "--trace", trace)[1]
        second = smoke(capsys, "--workload", workload, "--trace", trace)[1]
        exact = [n for n in first["metrics"] if not host_clock(n)]
        assert exact, "nothing deterministic to compare"
        for name in exact:
            assert first["metrics"][name] == second["metrics"][name], name


# -- span arithmetic ----------------------------------------------------


class Ticks:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_sum_to_the_root_span():
    tracer = Tracer(clock=Ticks())
    leaf = tracer.wrap(Patch("leaf", "", ""), lambda: None)
    inner = tracer.wrap(Patch("mid", "", ""), lambda: (leaf(), leaf()))
    outer = tracer.wrap(Patch("mid", "", ""), lambda: (inner(), leaf()))
    leaf()  # outside any op: not recorded
    tracer.op(lambda: (outer(), leaf()))
    tracer.op(leaf)
    summary = summarize(tracer)
    assert summary["calls"] == {"mid": 2, "leaf": 5}
    attributed = sum(summary["self"].values()) + summary["root_self"]
    assert attributed == pytest.approx(summary["root_total"])
    # the nested "mid" is not counted twice in the inclusive figure
    outer_span = next(s for s in tracer.spans if s[NAME] == "mid")
    assert summary["inclusive"]["mid"] == outer_span[END] - outer_span[START]
    assert [s[OP] for s in tracer.spans if s[PARENT] < 0] == [0, 1]  # one id per op


def test_patches_are_restored_on_exit():
    from repro.optim.sgd import SGD

    original = SGD.step
    with Tracer() as tracer:
        tracer.install(PATCH_TABLE)
        assert SGD.step is not original
    assert SGD.step is original and tracer.unresolved == []


def test_unresolvable_patch_entry_reads_null_not_an_exception(capsys):
    table = PATCH_TABLE + [
        Patch("optim.step", "repro.optim.sgd", "SGD.renamed_away"),
        Patch("nn.batched_exec", "repro.nn.no_such_module", "Executor.step"),
    ]
    workload = WORKLOADS["mesh_hybrid"]
    names = [m["name"] for m in SPEC["per_layer"]]
    values, detail, failed, _ = run.measure_per_layer(
        workload, 0, 3, 0, names, patch_table=table
    )
    assert set(values) == set(names)
    assert failed == 0 and len(detail["unresolved"]) == 2
    assert values["optim.step_ms"] is None and values["optim.step_calls"] is None
    assert values["nn.batched_exec_ms"] is None
    assert values["nn.batched_fallback_share"] is None
    assert values["train.rank_exec_ms"] > 0
    assert "no longer resolves" in capsys.readouterr().err


# -- compare.py ---------------------------------------------------------


def results(workload, seed, **values):
    metrics = {
        m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    return {
        "workload": workload, "environment": {"seed": seed},
        "attempted": 10, "failed": values.get("failed", 0), "metrics": metrics,
    }


def verdicts(base, new):
    rows, regressed = compare.compare(SPEC, base, new)
    return {(r[0], r[1]): r[-1] for r in rows if len(r) == 8}, regressed


def test_compare_verdicts():
    w = SPEC["workloads"][0]["name"]
    metric = "host_ms_per_op_p50"
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == metric)

    def run_set(values=(100, 101, 102), **extra):
        """Every workload at its defaults; ``w`` with the given p50 values."""
        runs = {x["name"]: [results(x["name"], 0)] for x in SPEC["workloads"]}
        runs[w] = [
            results(w, seed, **{metric: v}, **extra) for seed, v in enumerate(values)
        ]
        return runs

    def judge(new, base=None, name=metric):
        got, regressed = verdicts(base if base is not None else run_set(), new)
        return got[(w, name)], regressed

    got, regressed = verdicts(run_set(), run_set())
    assert set(got.values()) == {"unchanged"} and not regressed

    slow = 100 * (1 + 2 * bound)
    assert judge(run_set((slow, slow + 1, slow + 2))) == ("worse", True)
    assert judge(run_set((90, 91, 92))) == ("better", False)
    # worse by more than the bound, but the spread is wider and runs interleave
    assert judge(
        run_set((110, 200 * (1 + 1.5 * bound), 400)), base=run_set((100, 200, 300))
    ) == ("unresolved", False)
    # sim metrics at equal seeds compare exactly, whatever the bound
    assert judge(run_set(sim_s_per_op=1.0 + 1e-12), name="sim_s_per_op") == (
        "worse", True,
    )
    assert judge(run_set(failed=1), name="failed_op_share") == ("worse", True)
