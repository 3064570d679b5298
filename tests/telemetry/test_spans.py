"""Merged multi-generation chrome-trace export and its validator.

The headline invariant (ISSUE 5 acceptance): a resilient, overlapped,
wire-coded, straggler-injected run merges into ONE chrome trace where
every rank, stream, and generation has its own pid/tid track, with no
negative timestamps and no overlapping blocks on any track.
"""

import json

import pytest

from repro.cluster import Communicator
from repro.cluster.timeline import CollectiveRecord, TimelineEvent
from repro.telemetry import (
    COMM_TID,
    COMPUTE_TID,
    GenerationPart,
    TraceValidationError,
    merged_trace,
    parts_from_json,
    parts_to_json,
    validate_chrome_trace,
    write_trace,
)


def two_generation_parts():
    """World 3 that shrinks to world 2, each with compute + collectives."""
    gen0 = GenerationPart(
        world_size=3,
        compute_events=[
            TimelineEvent(r, "compute", "fwd", 0.0, 1.0 + r) for r in range(3)
        ],
        collectives=[
            CollectiveRecord("allreduce", "grads", "sync", 3, 100, -1, 1.0,
                             3.0, 4.0, None, "two_level"),
        ],
        label="gen0",
    )
    gen1 = GenerationPart(
        world_size=2,
        compute_events=[
            TimelineEvent(r, "compute", "fwd", 0.0, 2.0) for r in range(2)
        ],
        collectives=[
            CollectiveRecord("allgather", "", "", 2, 50, -1, 0.5, 2.0, 2.5,
                             (0, 1)),
        ],
        label="gen1",
    )
    return [gen0, gen1]


def x_events(trace):
    return [e for e in trace if e["ph"] == "X"]


class TestMergedTrace:
    def test_generations_get_disjoint_pid_blocks(self):
        trace = x_events(merged_trace(two_generation_parts()))
        gen0_pids = {e["pid"] for e in trace if e["args"]["generation"] == 0}
        gen1_pids = {e["pid"] for e in trace if e["args"]["generation"] == 1}
        assert gen0_pids == {0, 1, 2}
        assert gen1_pids == {3, 4}

    def test_streams_map_to_fixed_tids(self):
        trace = x_events(merged_trace(two_generation_parts()))
        by_name = {}
        for e in trace:
            by_name.setdefault(e["name"], set()).add(e["tid"])
        assert by_name["fwd"] == {COMPUTE_TID}
        comm = [e for e in trace if e["tid"] == COMM_TID]
        assert {e["name"] for e in comm} == {"allreduce:grads", "allgather:"}
        assert {e["args"]["scope"] for e in comm} == {"sync", ""}

    def test_generations_serialize_in_time(self):
        parts = two_generation_parts()
        trace = x_events(merged_trace(parts))
        gen0_end = max(
            e["ts"] + e["dur"] for e in trace if e["args"]["generation"] == 0
        )
        gen1_start = min(
            e["ts"] for e in trace if e["args"]["generation"] == 1
        )
        assert gen1_start >= gen0_end - 1e-6
        assert gen1_start == pytest.approx(parts[0].span_s * 1e6)

    def test_metadata_names_label_and_rank(self):
        trace = merged_trace(two_generation_parts())
        process_names = {
            e["args"]["name"] for e in trace if e["name"] == "process_name"
        }
        assert process_names == {
            "gen0 rank 0", "gen0 rank 1", "gen0 rank 2",
            "gen1 rank 0", "gen1 rank 1",
        }
        thread_names = [e for e in trace if e["name"] == "thread_name"]
        # 2 tracks per rank, 5 ranks across the two generations.
        assert len(thread_names) == 10
        assert {e["args"]["name"] for e in thread_names} == {
            "compute", "comm",
        }

    def test_validator_summary(self):
        summary = validate_chrome_trace(merged_trace(two_generation_parts()))
        assert summary["pids"] == [0, 1, 2, 3, 4]
        assert summary["generations"] == [0, 1]
        # gen0: 3 compute + 3 per-rank comm blocks; gen1: 2 + 2.
        assert summary["events"] == 10
        # compute+comm x 3 ranks, then x 2 ranks.
        assert summary["tracks"] == 10

    def test_empty_parts(self):
        assert merged_trace([]) == []
        assert validate_chrome_trace([]) == {
            "events": 0, "tracks": 0, "pids": [], "generations": [],
        }


class TestPartsJsonRoundTrip:
    def test_round_trip_preserves_merged_trace(self):
        parts = two_generation_parts()
        blob = json.dumps(parts_to_json(parts))
        restored = parts_from_json(blob)
        assert merged_trace(restored) == merged_trace(parts)

    def test_round_trip_preserves_fields(self):
        parts = parts_from_json(parts_to_json(two_generation_parts()))
        assert parts[0].world_size == 3
        assert parts[1].label == "gen1"
        assert parts == two_generation_parts()
        assert parts[0].collectives[0].tag == "grads"
        assert parts[0].collectives[0].schedule == "two_level"
        assert parts[1].collectives[0].ranks == (0, 1)

    def test_other_versions_are_refused_by_name(self):
        blob = parts_to_json(two_generation_parts())
        assert blob["version"] == 3
        for version in (1, 2, None):
            blob["version"] = version
            with pytest.raises(ValueError, match=f"version {version!r}"):
                parts_from_json(blob)

    def test_write_trace(self, tmp_path):
        trace = merged_trace(two_generation_parts())
        path = tmp_path / "trace.json"
        write_trace(path, trace)
        assert json.loads(path.read_text()) == trace


class TestValidator:
    def test_negative_timestamp_rejected(self):
        bad = [{"ph": "X", "ts": -1.0, "dur": 1.0, "pid": 0, "tid": 0,
                "name": "x"}]
        with pytest.raises(TraceValidationError, match="negative timestamp"):
            validate_chrome_trace(bad)

    def test_negative_duration_rejected(self):
        bad = [{"ph": "X", "ts": 0.0, "dur": -1.0, "pid": 0, "tid": 0,
                "name": "x"}]
        with pytest.raises(TraceValidationError, match="negative duration"):
            validate_chrome_trace(bad)

    def test_same_track_overlap_rejected(self):
        bad = [
            {"ph": "X", "ts": 0.0, "dur": 2.0, "pid": 0, "tid": 0, "name": "a"},
            {"ph": "X", "ts": 1.0, "dur": 2.0, "pid": 0, "tid": 0, "name": "b"},
        ]
        with pytest.raises(TraceValidationError, match="overlap"):
            validate_chrome_trace(bad)

    def test_cross_track_overlap_allowed(self):
        ok = [
            {"ph": "X", "ts": 0.0, "dur": 2.0, "pid": 0, "tid": 0, "name": "a"},
            {"ph": "X", "ts": 1.0, "dur": 2.0, "pid": 0, "tid": 1, "name": "b"},
            {"ph": "X", "ts": 1.0, "dur": 2.0, "pid": 1, "tid": 0, "name": "c"},
        ]
        assert validate_chrome_trace(ok)["tracks"] == 3

    def test_metadata_events_ignored(self):
        trace = [{"ph": "M", "ts": -5, "pid": 0, "tid": 0,
                  "name": "process_name", "args": {"name": "x"}}]
        assert validate_chrome_trace(trace)["events"] == 0


class TestFromRun:
    def test_captures_live_communicator(self):
        import numpy as np

        comm = Communicator(2, track_memory=False)
        comm.allreduce([np.ones(8), np.ones(8)], tag="grads")
        part = GenerationPart.from_run(comm.timeline, "gen0")
        assert part.world_size == 2
        assert part.collectives == comm.ledger.events
        assert part.compute_events == []
        assert part.span_s == pytest.approx(comm.timeline.makespan)

    def test_none_timeline_infers_world_from_ledger(self):
        part = GenerationPart.from_run(None, "x")
        assert part.world_size == 1 and part.span_s == 0.0


class TestResilientOverlappedRun:
    """The acceptance scenario, in-process."""

    @pytest.fixture(scope="class")
    def runner(self, tmp_path_factory):
        from repro.cluster import (
            ChaosCommunicator, FaultEvent, FaultKind, FaultPlan,
        )
        from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
        from repro.optim import SGD
        from repro.train import (
            DistributedTrainer,
            ResilientRunner,
            TrainConfig,
            WordLanguageModel,
            WordLMConfig,
        )

        vocab = 60
        corpus = make_corpus(ONE_BILLION_WORD.scaled(vocab), 6000, seed=0)
        model_cfg = WordLMConfig(
            vocab_size=vocab, embedding_dim=6, hidden_dim=8,
            projection_dim=6, num_samples=8,
        )
        cfg = TrainConfig(
            world_size=3, batch=BatchSpec(2, 6), base_lr=0.2,
            overlap=True, wire_codec="auto",
        )

        def factory(cfg, comm):
            return DistributedTrainer(
                lambda rng, rank: WordLanguageModel(model_cfg, rng),
                lambda params, lr: SGD(params, lr),
                corpus.train, corpus.valid, cfg, comm=comm,
            )

        plan = FaultPlan([
            FaultEvent(FaultKind.STRAGGLER, collective_index=1, rank=1,
                       slowdown=3.0),
            FaultEvent(FaultKind.RANK_LOSS, collective_index=16, rank=2),
        ])
        comm = ChaosCommunicator(3, plan=plan, track_memory=False)
        runner = ResilientRunner(
            factory, cfg, tmp_path_factory.mktemp("ckpt") / "ckpt.npz",
            comm=comm, checkpoint_every=3,
        )
        runner.run(6)
        return runner

    def test_merged_trace_validates(self, runner):
        summary = validate_chrome_trace(merged_trace(runner.generation_parts()))
        # Generation 0 ran world 3, generation 1 world 2: 5 pids total.
        assert summary["pids"] == [0, 1, 2, 3, 4]
        assert summary["generations"] == [0, 1]
        assert summary["events"] > 0

    def test_every_rank_has_compute_comm_and_ledger_tracks(self, runner):
        trace = merged_trace(runner.generation_parts())
        tids_by_pid = {}
        for e in x_events(trace):
            tids_by_pid.setdefault(e["pid"], set()).add(e["tid"])
        for pid in (0, 1, 2):  # generation 0's full world
            assert tids_by_pid[pid] == {COMPUTE_TID, COMM_TID}

    def test_runner_chrome_trace_is_the_merged_view(self, runner):
        assert runner.chrome_trace() == merged_trace(runner.generation_parts())
