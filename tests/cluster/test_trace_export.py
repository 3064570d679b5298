"""Tests for chrome-trace export of the cost ledger.

The ledger exporter emits one ``X`` block per participating rank at
``pid = pid_base + rank`` (matching the Timeline's one-pid-per-rank
convention), preceded by ``process_name``/``thread_name`` metadata
events — the regression target of the old everything-on-pid-0 collapse.
"""

import json

import numpy as np

from repro.cluster import Communicator
from repro.cluster.tracing import CostLedger


def _x_events(trace):
    return [e for e in trace if e["ph"] == "X"]


def _meta_events(trace):
    return [e for e in trace if e["ph"] == "M"]


class TestChromeTrace:
    def test_event_fields(self):
        ledger = CostLedger()
        with ledger.scope("sync"):
            ledger.record("allreduce", 4, 100, 0.5, tag="lstm")
        trace = ledger.to_chrome_trace()
        events = _x_events(trace)
        # One block per participating rank, not one collapsed block.
        assert len(events) == 4
        assert {e["pid"] for e in events} == {0, 1, 2, 3}
        for event in events:
            assert event["name"] == "allreduce [lstm]"
            assert event["cat"] == "sync"
            assert event["ph"] == "X"
            assert event["dur"] == 0.5e6
            assert event["args"]["wire_bytes_per_rank"] == 100
            assert event["args"]["world"] == 4
            assert event["args"]["rank"] == event["pid"]

    def test_metadata_names_every_rank_track(self):
        ledger = CostLedger()
        ledger.record("allreduce", 2, 10, 0.1)
        trace = ledger.to_chrome_trace()
        meta = _meta_events(trace)
        names = {(m["name"], m["pid"]) for m in meta}
        assert ("process_name", 0) in names
        assert ("process_name", 1) in names
        assert ("thread_name", 0) in names
        process_names = {
            m["args"]["name"] for m in meta if m["name"] == "process_name"
        }
        assert process_names == {"rank 0", "rank 1"}

    def test_metadata_opt_out(self):
        ledger = CostLedger()
        ledger.record("allreduce", 2, 10, 0.1)
        trace = ledger.to_chrome_trace(metadata=False)
        assert _meta_events(trace) == []
        assert len(trace) == 2

    def test_events_laid_end_to_end(self):
        ledger = CostLedger()
        ledger.record("a", 1, 0, 1.0)
        ledger.record("b", 1, 0, 2.0)
        trace = _x_events(ledger.to_chrome_trace())
        assert trace[0]["ts"] == 0.0
        assert trace[1]["ts"] == 1.0e6

    def test_fallback_clock_is_per_rank(self):
        """Unscheduled events tick each rank's own clock, not a shared one."""
        ledger = CostLedger()
        ledger.record("a", 2, 0, 1.0)
        ledger.record("b", 2, 0, 2.0)
        trace = _x_events(ledger.to_chrome_trace(metadata=False))
        by_pid = {}
        for e in trace:
            by_pid.setdefault(e["pid"], []).append(e)
        for pid, events in by_pid.items():
            assert [e["ts"] for e in events] == [0.0, 1.0e6]

    def test_fallback_clock_skips_past_scheduled_events(self):
        """An unscheduled event never overlaps an earlier scheduled one."""
        ledger = CostLedger()
        ledger.record("sched", 1, 0, 1.0, start_s=0.0, end_s=1.0)
        ledger.record("manual", 1, 0, 0.5)
        sched, manual = _x_events(ledger.to_chrome_trace(metadata=False))
        assert manual["ts"] >= sched["ts"] + sched["dur"]

    def test_pid_base_tid_and_offset(self):
        ledger = CostLedger()
        ledger.record("a", 2, 0, 1.0, start_s=0.0, end_s=1.0)
        trace = _x_events(
            ledger.to_chrome_trace(
                pid_base=10, tid=2, time_offset_s=3.0, metadata=False
            )
        )
        assert {e["pid"] for e in trace} == {10, 11}
        assert all(e["tid"] == 2 for e in trace)
        assert all(e["ts"] == 3.0e6 for e in trace)

    def test_generation_stamped_into_args(self):
        ledger = CostLedger()
        ledger.record("a", 1, 0, 1.0)
        trace = ledger.to_chrome_trace(generation=3)
        assert all(e["args"]["generation"] == 3 for e in trace)
        (process_meta,) = [
            e for e in _meta_events(trace) if e["name"] == "process_name"
        ]
        assert process_meta["args"]["name"] == "gen3 rank 0"

    def test_empty_ledger(self):
        assert CostLedger().to_chrome_trace() == []

    def test_write_valid_json(self, tmp_path):
        comm = Communicator(4, track_memory=False)
        comm.allreduce([np.ones(8) for _ in range(4)], tag="grads")
        comm.allgather([np.ones(4) for _ in range(4)])
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(comm.ledger.to_chrome_trace()))
        loaded = json.loads(path.read_text())
        events = _x_events(loaded)
        # 2 collectives x 4 ranks, plus 2 metadata events per rank.
        assert len(events) == 8
        assert len(_meta_events(loaded)) == 8
        assert all(e["name"].startswith(("allreduce", "allgather"))
                   for e in events)

    def test_training_run_produces_trace(self):
        """A real training step's ledger exports cleanly."""
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
        trace = _x_events(trainer.comm.ledger.to_chrome_trace())
        assert len(trace) > 3  # dense allreduces + embedding exchanges
        assert {e["pid"] for e in trace} == {0, 1}
        cats = {e["cat"] for e in trace}
        assert any("embedding" in c for c in cats)
