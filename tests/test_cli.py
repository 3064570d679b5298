"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "word"
        assert args.gpus == 4
        assert not args.baseline
        assert not args.overlap

    def test_overlap_flag_pair(self):
        assert build_parser().parse_args(["train", "--overlap"]).overlap
        assert not build_parser().parse_args(["train", "--no-overlap"]).overlap

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "--table", "7"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["zipf", "--dataset", "nope"])


class TestCommands:
    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "35.2 GB" in out
        assert "256x" in out

    def test_zipf(self, capsys):
        assert main(["zipf", "--tokens", "20000", "--dataset", "gb"]) == 0
        out = capsys.readouterr().out
        assert "Heaps fit" in out
        assert "gb:" in out

    @pytest.mark.parametrize("table,expect", [(3, "word-lm-1b"), (4, "char-lm-1b"), (5, "Tieba")])
    def test_perf_tables(self, capsys, table, expect):
        assert main(["perf", "--table", str(table)]) == 0
        assert expect in capsys.readouterr().out

    def test_perf_table3_shows_oom(self, capsys):
        main(["perf", "--table", "3"])
        assert "OOM *" in capsys.readouterr().out

    def test_train_word_smoke(self, capsys):
        rc = main(
            [
                "train", "--model", "word", "--gpus", "2", "--steps", "6",
                "--vocab", "80", "--corpus-tokens", "5000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final val ppl" in out

    def test_train_char_with_fp16(self, capsys):
        rc = main(
            [
                "train", "--model", "char", "--gpus", "2", "--steps", "4",
                "--vocab", "60", "--corpus-tokens", "30000", "--fp16",
            ]
        )
        assert rc == 0
        assert "unique + fp16" in capsys.readouterr().out

    def test_generate_smoke(self, capsys):
        rc = main(["generate", "--steps", "10", "--length", "15"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bits/char" in out
        assert "sample: the " in out

    def test_train_baseline_flag(self, capsys):
        rc = main(
            [
                "train", "--gpus", "2", "--steps", "3", "--vocab", "80",
                "--corpus-tokens", "5000", "--baseline",
            ]
        )
        assert rc == 0
        assert "allgather" in capsys.readouterr().out

    def test_train_overlap_flag(self, capsys):
        rc = main(
            [
                "train", "--gpus", "2", "--steps", "3", "--vocab", "80",
                "--corpus-tokens", "5000", "--overlap",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlapped" in out


class TestResilientTraining:
    def test_resilient_demo_plan_smoke(self, capsys, tmp_path):
        rc = main(
            [
                "train", "--gpus", "3", "--steps", "8", "--vocab", "80",
                "--corpus-tokens", "5000", "--resilient",
                "--checkpoint", str(tmp_path / "ckpt.npz"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resilient word LM" in out
        assert "scheduled fault(s)" in out
        assert "retry" in out
        # The demo plan loses rank 2 mid-run: the world shrinks.
        assert "final world: 2" in out
        assert "communicator generation(s)" in out
        assert (tmp_path / "ckpt.npz").exists()

    def test_fault_plan_file_implies_resilient(self, capsys, tmp_path):
        from repro.cluster import FaultEvent, FaultKind, FaultPlan

        plan_file = tmp_path / "plan.json"
        FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2,
                        rank=1, retries=1)],
            seed=5,
        ).save(plan_file)
        rc = main(
            [
                "train", "--gpus", "2", "--steps", "4", "--vocab", "80",
                "--corpus-tokens", "5000",
                "--fault-plan", str(plan_file),
                "--checkpoint", str(tmp_path / "c.npz"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 scheduled fault(s)" in out
        assert "final world: 2" in out  # transient only: no shrink
        assert "1 retry charged" in out

    def test_resilient_single_gpu_has_no_rank_loss(self, capsys, tmp_path):
        rc = main(
            [
                "train", "--gpus", "1", "--steps", "4", "--vocab", "80",
                "--corpus-tokens", "5000", "--resilient",
                "--checkpoint", str(tmp_path / "one.npz"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final world: 1" in out

    def test_resilient_composes_with_sanitize(self, capsys, tmp_path):
        """The sanitizer rides the recovery loop, whether --resilient is
        explicit (the demo plan's rank loss shrinks the world) or
        implied by a plan file."""
        from repro.cluster import FaultEvent, FaultKind, FaultPlan

        plan_file = tmp_path / "plan.json"
        FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2,
                        rank=1, retries=1)],
        ).save(plan_file)
        base = ["train", "--gpus", "3", "--steps", "4", "--vocab", "80",
                "--corpus-tokens", "5000", "--sanitize"]
        for flags, world in ((["--resilient"], 2),
                             (["--fault-plan", str(plan_file)], 3)):
            assert main(base + flags) == 0
            out = capsys.readouterr().out
            assert "| sanitized" in out
            assert f"final world: {world}" in out
            assert "collectives checked, 0 violations" in out

    def test_checkpoint_without_resilient_rejected(
        self, capsys, monkeypatch, tmp_path
    ):
        """Nothing would write the file: refused before any corpus is
        built, with one error line."""

        def no_corpus(*args, **kwargs):
            raise AssertionError("corpus built before flag validation")

        monkeypatch.setattr("repro.data.make_corpus", no_corpus)
        ckpt = tmp_path / "ckpt.npz"
        assert main(["train", "--steps", "2", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--checkpoint" in err
        assert len(err.splitlines()) == 1
        assert not ckpt.exists()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.resilient is False
        assert args.fault_plan is None
        assert args.checkpoint is None


class TestWireCodecFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.wire_codec is None

    def test_spec_choices(self):
        """The parser carries no codec list of its own: any string is a
        spec, and ``WirePolicy.from_spec`` (via TrainConfig) judges it."""
        for spec in ("auto", "fp16", "delta", "entropy", "none", "fp16+entropy"):
            assert (
                build_parser()
                .parse_args(["train", "--wire-codec", spec])
                .wire_codec
                == spec
            )

    SMALL = ["train", "--gpus", "2", "--steps", "3", "--vocab", "80",
             "--corpus-tokens", "5000"]

    def test_composite_spec_trains(self, capsys):
        """The word_wire benchmark workload's own spec."""
        assert main(self.SMALL + ["--wire-codec", "fp16+entropy"]) == 0
        out = capsys.readouterr().out
        assert "wire: fp16+entropy" in out
        assert "index compression:" in out

    def test_unknown_spec_exits_2_before_any_corpus_is_built(
        self, capsys, monkeypatch
    ):
        def no_corpus(*args, **kwargs):
            raise AssertionError("corpus built before flag validation")

        monkeypatch.setattr("repro.data.make_corpus", no_corpus)
        assert main(self.SMALL + ["--wire-codec", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown wire-codec 'bogus'")

    def test_fp16_wire_overflow_exits_2_with_one_error_line(self, capsys):
        """F = 65504 carries the eight-rank sum past FP16 on step 2."""
        rc = main(["train", "--gpus", "8", "--steps", "3",
                   "--corpus-tokens", "6000", "--wire-codec", "fp16:65504"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: step 2: gradient ")
        assert len(err.splitlines()) == 1
        assert "world 8, F=65504" in err
        assert "final val ppl" not in out

    def test_train_with_delta_reports_measured_compression(self, capsys):
        rc = main(
            [
                "train", "--model", "word", "--gpus", "2", "--steps", "6",
                "--vocab", "80", "--corpus-tokens", "5000",
                "--wire-codec", "delta",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wire: delta" in out
        assert "index compression:" in out
        factor = float(
            out.split("index compression:")[1].split("x")[0].strip()
        )
        assert factor > 1.0


class TestTelemetry:
    def run_telemetry_train(self, tmp_path, *extra):
        tele = tmp_path / "tele"
        rc = main(
            [
                "train", "--gpus", "2", "--steps", "4", "--vocab", "80",
                "--corpus-tokens", "5000", "--telemetry-dir", str(tele),
                *extra,
            ]
        )
        assert rc == 0
        return tele

    def test_train_writes_telemetry_dir(self, capsys, tmp_path):
        tele = self.run_telemetry_train(tmp_path)
        out = capsys.readouterr().out
        assert "telemetry: 4 steps" in out
        for name in ("steps.jsonl", "metrics.json",
                     "trace.json", "trace_parts.json", "summary.json"):
            assert (tele / name).exists(), name
        assert not (tele / "metrics.prom").exists()
        import json as _json

        steps = [
            _json.loads(line)
            for line in (tele / "steps.jsonl").read_text().splitlines()
        ]
        assert [s["step"] for s in steps] == [1, 2, 3, 4]
        assert all(s["wire_bytes_per_rank"] > 0 for s in steps)

    def test_trace_subcommand_validates_and_cross_checks(
        self, capsys, tmp_path
    ):
        tele = self.run_telemetry_train(
            tmp_path, "--overlap", "--wire-codec", "auto",
        )
        capsys.readouterr()
        rc = main(["trace", str(tele)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "merged trace:" in out
        assert "generations [0]" in out
        assert "exports: metrics.json (" in out
        assert "ledger totals agree exactly" in out
        assert (tele / "trace.json").exists()

    def test_trace_resilient_run_has_per_generation_pids(
        self, capsys, tmp_path
    ):
        """The ISSUE 5 acceptance invocation, end to end."""
        tele = self.run_telemetry_train(
            tmp_path, "--gpus", "3", "--steps", "8", "--resilient",
            "--overlap", "--wire-codec", "auto",
            "--checkpoint", str(tmp_path / "ckpt.npz"),
        )
        capsys.readouterr()
        out_path = tmp_path / "merged.json"
        rc = main(["trace", str(tele), "--out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        # Demo plan: world 3 shrinks to 2 -> 5 pids, generations 0 and 1.
        assert "5 pids" in out
        assert "generations [0, 1]" in out
        assert "ledger totals agree exactly" in out
        import json as _json

        trace = _json.loads(out_path.read_text())
        pids = {e["pid"] for e in trace if e["ph"] == "X"}
        assert pids == {0, 1, 2, 3, 4}

    def test_trace_missing_dir_errors(self, capsys, tmp_path):
        rc = main(["trace", str(tmp_path / "nope")])
        assert rc == 2
        assert "trace_parts.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "not json {",
            "[]",
            '{"generations": []}',
            '{"version": 3, "generations": []}',
            '{"version": 1, "generations": [{"world_size": 2}]}',
            '{"version": 2}',
            '{"version": 2, "generations": [{"world_size": 2}]}',
            '{"version": 2, "generations": [{"world_size": 2, '
            '"compute_events": [[0, "x"]], "collectives": []}]}',
            '{"version": 2, "generations": [{"world_size": 2, '
            '"compute_events": [], "collectives": [["allreduce", "t", "s", '
            '2, 8, 8, 0.1, 0.0, 0.1, [0, 2]]]}]}',
            '{"version": 2, "generations": [{"world_size": 0, '
            '"compute_events": [], "collectives": []}]}',
        ],
        ids=[
            "not-json", "not-an-object", "no-version", "unknown-version",
            "version-1", "no-generations", "missing-keys", "short-row",
            "rank-outside-world", "world-size-zero",
        ],
    )
    def test_trace_bad_parts_file_exits_2(self, capsys, tmp_path, text):
        (tmp_path / "trace_parts.json").write_text(text)
        assert main(["trace", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_trace_bad_metrics_file_exits_2(self, capsys, tmp_path):
        tele = self.run_telemetry_train(tmp_path)
        metrics = tele / "metrics.json"
        text = metrics.read_text()
        not_labels = (
            '{"metrics": [{"name": "x", "type": "gauge", '
            '"samples": [{"labels": [], "value": 1}]}]}'
        )
        for bad in (text[: len(text) // 2], "[]", "{}", not_labels):
            metrics.write_text(bad)
            capsys.readouterr()
            assert main(["trace", str(tele)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "metrics.json" in err
            assert len(err.splitlines()) == 1


class TestTrainMesh:
    """`train --mesh`: parse-time validation and end-to-end smoke."""

    BASE = ["train", "--gpus", "4", "--steps", "2", "--vocab", "60",
            "--corpus-tokens", "4000"]

    def test_trivial_mesh_smoke(self, capsys):
        rc = main(self.BASE + ["--mesh", "data=G"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mesh: data=G" in out

    def test_hybrid_mesh_with_axis_verification(self, capsys):
        rc = main(["train", "--gpus", "8", "--steps", "2", "--vocab", "60",
                   "--corpus-tokens", "4000",
                   "--mesh", "pipe=2,tensor=2,data=", "--sanitize"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "collectives checked, 0 violations" in out

    def test_bad_spec_is_a_parse_time_error(self, capsys):
        rc = main(self.BASE + ["--mesh", "pipe=3,data="])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not divide" in err

    def test_unknown_axis_rejected(self, capsys):
        rc = main(self.BASE + ["--mesh", "node=2,local=2"])
        assert rc == 2
        assert "training-mesh axis" in capsys.readouterr().err

    def test_mesh_composes_with_codec_flags(self, capsys):
        for flags in (["--fp16"], ["--wire-codec", "delta"],
                      ["--fp16", "--wire-codec", "auto"]):
            rc = main(self.BASE + ["--mesh", "tensor=2,data=2"] + flags)
            assert rc == 0
            out = capsys.readouterr().out
            assert "final val ppl" in out

    def test_mesh_composes_with_overlap_and_sanitize(self, capsys):
        rc = main(self.BASE + ["--mesh", "tensor=2,data=2", "--overlap"])
        assert rc == 0
        assert "overlapped" in capsys.readouterr().out
        rc = main(self.BASE + ["--mesh", "tensor=2,data=2", "--sanitize"])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_every_switch_at_once_on_a_hybrid_mesh(self, capsys):
        rc = main(["train", "--gpus", "8", "--steps", "2", "--vocab", "60",
                   "--corpus-tokens", "4000",
                   "--mesh", "pipe=2,tensor=2,data=G/4", "--fp16",
                   "--wire-codec", "delta", "--overlap", "--fused-reduce",
                   "--sanitize"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final val ppl" in out
        assert "0 violations" in out

    def test_baseline_on_trivial_mesh_moves_the_flat_baselines_bytes(
        self, capsys
    ):
        def wire_line(extra):
            assert main(self.BASE + ["--baseline"] + extra) == 0
            out = capsys.readouterr().out
            return next(ln for ln in out.splitlines() if "wire MB" in ln)

        assert wire_line(["--mesh", "data=G"]) == wire_line([])

    def test_resilient_needs_shrinkable_data_axis(self, capsys):
        rc = main(["train", "--gpus", "4", "--steps", "2", "--vocab", "60",
                   "--corpus-tokens", "4000", "--resilient",
                   "--mesh", "pipe=2,tensor=2,data=1"])
        assert rc == 2
        assert "data axis" in capsys.readouterr().err

    def test_resilient_mesh_rank_loss_collapses_data_axis(self, capsys):
        rc = main(["train", "--gpus", "8", "--steps", "6", "--vocab", "60",
                   "--corpus-tokens", "4000", "--resilient",
                   "--mesh", "pipe=2,tensor=2,data=2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "world 8 -> 4" in out

    def test_nonpositive_counts_rejected(self, capsys):
        rc = main(["train", "--gpus", "0", "--steps", "2"])
        assert rc == 2
        assert "world_size must be positive" in capsys.readouterr().err
        rc = main(["train", "--gpus", "2", "--steps", "0"])
        assert rc == 2
        assert "--steps" in capsys.readouterr().err


class TestServeBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.model == "word"
        assert args.gpus == 4
        assert args.requests == 48
        assert args.slo is None
        assert args.fault_plan is None

    def test_word_smoke(self, capsys):
        rc = main(["serve-bench", "--requests", "12", "--gpus", "2",
                   "--vocab", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "continuous: makespan" in out
        assert "token-identical" in out
        assert "ttft:" in out and "p99" in out
        assert "goodput:" in out

    def test_char_smoke(self, capsys):
        rc = main(["serve-bench", "--model", "char", "--requests", "8",
                   "--gpus", "2", "--vocab", "40"])
        assert rc == 0
        assert "char model" in capsys.readouterr().out

    def test_slo_drops_reported(self, capsys):
        rc = main(["serve-bench", "--requests", "24", "--gpus", "2",
                   "--vocab", "60", "--slo", "0.01"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dropped" in out

    def test_telemetry_dir_written(self, capsys, tmp_path):
        import json

        from repro.telemetry import flatten_samples

        rc = main(["serve-bench", "--requests", "8", "--gpus", "2",
                   "--vocab", "50", "--telemetry-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "steps.jsonl").exists()
        assert not (tmp_path / "metrics.prom").exists()
        flat = flatten_samples(
            json.loads((tmp_path / "metrics.json").read_text())
        )
        assert any(
            name == "repro_serve_p99_ttft_seconds" for name, _, _ in flat
        )
        capsys.readouterr()
        assert main(["trace", str(tmp_path)]) == 0
        assert "ledger totals agree exactly" in capsys.readouterr().out

    def test_fault_plan_served(self, capsys, tmp_path):
        import json

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "seed": 0,
            "events": [{"kind": "rank_loss", "collective_index": 4,
                        "rank": 1}],
        }))
        rc = main(["serve-bench", "--requests", "16", "--gpus", "3",
                   "--vocab", "60", "--fault-plan", str(plan_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 generation(s)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["serve-bench", "--max-batch", "0"],
        ["serve-bench", "--slo", "-1"],
        ["serve-bench", "--cache-budget", "0"],
        ["serve-bench", "--gpus", "0"],
        ["serve-bench", "--requests", "-1"],
        ["serve-bench", "--vocab", "10"],
        ["zipf", "--tokens", "0"],
        ["train", "--vocab", "1"],
        ["train", "--corpus-tokens", "50"],
        ["generate", "--temperature", "0"],
        ["generate", "--length", "-3"],
        ["generate", "--prompt", ""],
    ],
    ids=" ".join,
)
def test_bad_argument_exits_2_with_one_error_line(capsys, argv):
    """A bad value is a usage error, reported before any work starts."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing ran: no training, no report
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


BAD_FAULT_PLANS = {
    "missing": None,
    "not-json": "seed: 0",
    "rank-outside-world": '{"events": [{"kind": "rank_loss", '
                          '"collective_index": 3, "rank": 9}]}',
    "not-a-plan": '{"not": "a plan"}',
    "infinite-slowdown": '{"events": [{"kind": "straggler", '
                         '"collective_index": 1, "slowdown": Infinity}]}',
    "nan-slowdown": '{"events": [{"kind": "straggler", '
                    '"collective_index": 1, "slowdown": NaN}]}',
    "fractional-index": '{"events": [{"kind": "rank_loss", '
                        '"collective_index": 1.5}]}',
    "boolean-index": '{"events": [{"kind": "rank_loss", '
                     '"collective_index": true}]}',
    "string-rank": '{"events": [{"kind": "rank_loss", '
                   '"collective_index": 1, "rank": "0"}]}',
}


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--gpus", "2", "--steps", "4"],
        ["serve-bench", "--gpus", "2", "--requests", "8"],
    ],
    ids=lambda argv: argv[0],
)
def test_bad_fault_plan_exits_2_before_any_model_is_built(
    capsys, monkeypatch, tmp_path, argv
):
    def no_work(*args, **kwargs):
        raise AssertionError("corpus or model built before the plan check")

    monkeypatch.setattr("repro.data.make_corpus", no_work)
    monkeypatch.setattr("repro.train.word_lm.WordLanguageModel", no_work)
    for name, text in BAD_FAULT_PLANS.items():
        plan_file = tmp_path / f"{name}.json"
        if text is not None:
            plan_file.write_text(text)
        assert main(argv + ["--fault-plan", str(plan_file)]) == 2, name
        out, err = capsys.readouterr()
        assert out == "", name
        assert err.startswith("error: ") and len(err.splitlines()) == 1, name


def test_retired_spmd_surface_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-spmd"])
    assert exc.value.code == 2
    assert "invalid choice: 'verify-spmd'" in capsys.readouterr().err
    for retired in ("REPRO003", "REPRO007", "REPRO010", "REPRO011"):
        assert main(["lint", "--rules", retired]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown rule ids: ['{retired}']")
        assert err.rstrip().endswith("REPRO008, REPRO009)")


def test_cache_budget_below_one_batch_exits_2(capsys):
    assert main(["serve-bench", "--cache-budget", "64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cache budget cannot hold") and err.count("\n") == 1
