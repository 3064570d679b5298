"""Tests for the chrome-trace export of a communicator's collectives.

Every collective is one Timeline record; the merged exporter draws it as
one comm-track (tid 1) ``X`` block per participating rank at
``pid = pid_base + rank``, carrying its op, scope and wire bytes in
``args`` — the regression target of the old everything-on-pid-0
collapse, and of the second (ledger, tid 2) copy of every collective.
"""

import json

import numpy as np
import pytest

from repro.cluster import Communicator, Timeline
from repro.telemetry import (
    COMM_TID,
    COMPUTE_TID,
    GenerationPart,
    TelemetrySession,
    merged_trace,
    validate_chrome_trace,
    write_trace,
)


def _x_events(trace):
    return [e for e in trace if e["ph"] == "X"]


def _meta_events(trace):
    return [e for e in trace if e["ph"] == "M"]


def _trace(*timelines, **kwargs):
    return merged_trace(
        [GenerationPart.from_run(tl) for tl in timelines], **kwargs
    )


class TestChromeTrace:
    def test_event_fields(self):
        comm = Communicator(4, track_memory=False)
        with comm.timeline.scope("sync"):
            handle = comm.iallreduce([np.ones(8)] * 4, tag="lstm")
        handle.wait()
        events = _x_events(_trace(comm.timeline))
        # One block per participating rank, not one collapsed block.
        assert len(events) == 4
        assert {e["pid"] for e in events} == {0, 1, 2, 3}
        ticket = handle.ticket
        for event in events:
            assert event["name"] == "allreduce:lstm"
            assert event["cat"] == "comm"
            assert event["tid"] == COMM_TID
            assert event["dur"] == (ticket.end - ticket.start) * 1e6
            assert event["args"]["op"] == "allreduce"
            assert event["args"]["scope"] == "sync"
            assert event["args"]["wire_bytes_per_rank"] == (
                comm.ledger.total_wire_bytes_per_rank
            )

    def test_metadata_names_every_rank_track(self):
        comm = Communicator(2, track_memory=False)
        comm.allreduce([np.ones(4)] * 2)
        meta = _meta_events(_trace(comm.timeline))
        process_names = {
            m["args"]["name"] for m in meta if m["name"] == "process_name"
        }
        assert process_names == {"gen0 rank 0", "gen0 rank 1"}
        threads = {
            (m["pid"], m["tid"], m["args"]["name"])
            for m in meta if m["name"] == "thread_name"
        }
        assert threads == {
            (pid, tid, name)
            for pid in (0, 1)
            for tid, name in ((COMPUTE_TID, "compute"), (COMM_TID, "comm"))
        }

    def test_metadata_opt_out(self):
        comm = Communicator(2, track_memory=False)
        comm.allreduce([np.ones(4)] * 2)
        trace = _trace(comm.timeline, metadata=False)
        assert _meta_events(trace) == []
        assert len(trace) == 2

    def test_events_laid_end_to_end(self):
        """Collectives serialize on the link, in issue order."""
        tl = Timeline(1)
        tl.schedule_collective(1.0, "a", op="allreduce")
        tl.schedule_collective(2.0, "b", op="allreduce")
        trace = _x_events(_trace(tl))
        assert [e["ts"] for e in trace] == [0.0, 1.0e6]
        assert [e["dur"] for e in trace] == [1.0e6, 2.0e6]

    def test_pid_base_tid_and_offset(self):
        """A later generation gets the next pid block and a time offset."""
        first, second = Timeline(2), Timeline(2)
        first.schedule_collective(3.0, "a", op="allreduce")
        second.schedule_collective(1.0, "b", op="allreduce")
        trace = _x_events(_trace(first, second))
        later = [e for e in trace if e["args"]["generation"] == 1]
        assert {e["pid"] for e in later} == {2, 3}
        assert all(e["tid"] == COMM_TID for e in later)
        assert all(e["ts"] == 3.0e6 for e in later)

    def test_generation_stamped_into_args(self):
        first, second = Timeline(1), Timeline(1)
        first.schedule_collective(1.0, "a", op="allreduce")
        second.schedule_collective(1.0, "a", op="allreduce")
        trace = _trace(first, second)
        # per generation: process + 2 thread names + one comm block
        assert sorted(e["args"]["generation"] for e in trace) == [0] * 4 + [1] * 4
        process_meta = [
            e for e in _meta_events(trace)
            if e["name"] == "process_name" and e["args"]["generation"] == 1
        ]
        assert [e["args"]["name"] for e in process_meta] == ["gen1 rank 0"]

    def test_empty_ledger(self):
        """A timeline with nothing recorded draws no blocks."""
        assert _x_events(_trace(Timeline(2))) == []

    def test_write_valid_json(self, tmp_path):
        comm = Communicator(4, track_memory=False)
        comm.allreduce([np.ones(8) for _ in range(4)], tag="grads")
        comm.allgather([np.ones(4) for _ in range(4)])
        path = tmp_path / "trace.json"
        write_trace(path, _trace(comm.timeline))
        loaded = json.loads(path.read_text())
        events = _x_events(loaded)
        # 2 collectives x 4 ranks, plus 3 metadata events per rank.
        assert len(events) == 8
        assert len(_meta_events(loaded)) == 12
        assert all(e["name"].startswith(("allreduce", "allgather"))
                   for e in events)

    def test_training_run_produces_trace(self):
        """A real training step's collectives export cleanly."""
        from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
        from repro.optim import SGD
        from repro.train import (
            DistributedTrainer,
            TrainConfig,
            WordLanguageModel,
            WordLMConfig,
        )

        corpus = make_corpus(ONE_BILLION_WORD.scaled(50), 5000, seed=0)
        cfg = TrainConfig(world_size=2, batch=BatchSpec(2, 6), base_lr=0.2)
        model_cfg = WordLMConfig(
            vocab_size=50, embedding_dim=6, hidden_dim=8, projection_dim=6,
            num_samples=8,
        )
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(model_cfg, rng),
            lambda params, lr: SGD(params, lr),
            corpus.train, corpus.valid, cfg,
        )
        trainer.train_step()
        trace = _x_events(_trace(trainer.comm.timeline))
        comm = [e for e in trace if e["tid"] == COMM_TID]
        assert len(comm) > 3  # dense allreduces + embedding exchanges
        assert {e["pid"] for e in comm} == {0, 1}
        scopes = {e["args"]["scope"] for e in comm}
        assert any("embedding" in s for s in scopes)


class TestResilientOverlapMeshTrace:
    """The acceptance run: resilient + overlap + hybrid mesh, one trace."""

    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
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
            world_size=8, batch=BatchSpec(2, 6), base_lr=0.2,
            overlap=True, mesh="pipe=2,tensor=2,data=",
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
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=1, rank=3),
            FaultEvent(FaultKind.RANK_LOSS, collective_index=14, rank=2),
        ])
        session = TelemetrySession()
        runner = ResilientRunner(
            factory, cfg, tmp_path_factory.mktemp("ckpt") / "ckpt.npz",
            comm=ChaosCommunicator(8, plan=plan, track_memory=False),
            checkpoint_every=3, telemetry=session,
        )
        runner.run(5)
        assert len(session.parts()) == 2  # the rank loss shrank the world
        return session

    def test_merged_trace_validates_on_two_tids(self, session):
        trace = merged_trace(session.parts())
        summary = validate_chrome_trace(trace)
        assert summary["generations"] == [0, 1]
        assert {e["tid"] for e in _x_events(trace)} == {COMPUTE_TID, COMM_TID}

    def test_rank0_comm_blocks_sum_to_the_run_wire_gauge(self, session):
        parts = session.parts()
        session.finalize()
        gauge = session.registry.get("repro_run_wire_bytes_per_rank").value()
        rank0_pids = {0, parts[0].world_size}
        wire = sum(
            e["args"]["wire_bytes_per_rank"]
            for e in _x_events(merged_trace(parts))
            if e["tid"] == COMM_TID and e["pid"] in rank0_pids
        )
        assert wire == gauge > 0
