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
        assert "replica divergence: 0.0e+00" in out

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
        assert "replica divergence: 0.0e+00" in out


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
        assert "replica divergence: 0.0e+00" in out
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

    def test_resilient_rejects_sanitize(self, capsys, monkeypatch, tmp_path):
        """Refused like every other doomed pairing: before any corpus is
        built, whether --resilient is explicit or implied by a plan."""

        def no_corpus(*args, **kwargs):
            raise AssertionError("corpus built before flag validation")

        monkeypatch.setattr("repro.data.make_corpus", no_corpus)
        base = ["train", "--gpus", "2", "--steps", "3", "--vocab", "80",
                "--corpus-tokens", "5000", "--sanitize"]
        for flags in (["--resilient"],
                      ["--fault-plan", str(tmp_path / "plan.json")]):
            assert main(base + flags) == 2
            assert "mutually" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.resilient is False
        assert args.fault_plan is None
        assert args.checkpoint is None


class TestWireCodecFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.wire_codec is None
        assert args.wire_chunk_bytes is None

    def test_spec_choices(self):
        """The parser carries no codec list of its own: any string is a
        spec, and ``WirePolicy.from_spec`` (via TrainConfig) judges it."""
        for spec in ("auto", "fp16", "delta", "rle", "none", "fp16+entropy"):
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
        assert "replica divergence: 0.0e+00" in out

    def test_train_with_chunked_auto(self, capsys):
        rc = main(
            [
                "train", "--model", "word", "--gpus", "2", "--steps", "4",
                "--vocab", "80", "--corpus-tokens", "5000",
                "--wire-codec", "auto", "--wire-chunk-bytes", "2048",
            ]
        )
        assert rc == 0
        assert "index compression:" in capsys.readouterr().out


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
        for name in ("steps.jsonl", "metrics.prom", "metrics.json",
                     "trace.json", "trace_parts.json", "summary.json"):
            assert (tele / name).exists(), name
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
        assert "exports: prometheus == json" in out
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


class TestVerifySpmd:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["verify-spmd"])
        assert args.paths == ["src/repro"]
        assert args.gpus == 4 and args.steps == 8
        assert not args.static_only and not args.dynamic_only

    def test_static_pass_on_clean_source(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text(
            "def step(comm, world, grads):\n"
            "    for rank in range(world):\n"
            "        grads[rank] *= 1.0 / world\n"
            "    comm.allreduce(grads)\n"
        )
        rc = main(["verify-spmd", str(clean), "--static-only"])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_static_pass_flags_divergent_mutant(self, capsys, tmp_path):
        mutant = tmp_path / "mutant.py"
        mutant.write_text(
            "def step(comm, rank, grads):\n"
            "    if rank == 0:\n"
            "        comm.allreduce(grads)\n"
        )
        rc = main(["verify-spmd", str(mutant), "--static-only"])
        assert rc == 1
        assert "REPRO010" in capsys.readouterr().out

    def test_missing_path_errors(self, capsys, tmp_path):
        rc = main(["verify-spmd", str(tmp_path / "nope.py"), "--static-only"])
        assert rc == 2
        assert "no such path" in capsys.readouterr().err

    def test_exclusive_layer_flags_rejected(self, capsys):
        rc = main(["verify-spmd", "--static-only", "--dynamic-only"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_dynamic_replay_smoke(self, capsys):
        rc = main(["verify-spmd", "--dynamic-only", "--gpus", "2",
                   "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lockstep OK" in out
        assert "0 divergences" in out

    def test_train_verify_spmd_flag(self, capsys):
        rc = main(["train", "--gpus", "2", "--steps", "2", "--vocab", "60",
                   "--corpus-tokens", "4000", "--verify-spmd"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lockstep-verified" in out
        assert "fingerprint-verified" in out


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
                   "--mesh", "pipe=2,tensor=2,data=", "--verify-spmd"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-axis mesh subgroups (data) verified" in out

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
            assert "replica divergence: 0.0e+00" in out

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
                   "--sanitize", "--verify-spmd"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replica divergence: 0.0e+00" in out
        assert "0 violations" in out and "0 divergences" in out

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

    def test_wire_chunk_without_codec_rejected(self, capsys):
        rc = main(["train", "--gpus", "2", "--steps", "2",
                   "--wire-chunk-bytes", "4096"])
        assert rc == 2
        assert "requires wire_codec" in capsys.readouterr().err


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
        rc = main(["serve-bench", "--requests", "8", "--gpus", "2",
                   "--vocab", "50", "--telemetry-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "steps.jsonl").exists()
        prom = (tmp_path / "metrics.prom").read_text()
        assert "repro_serve_p99_ttft_seconds" in prom

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
