"""TelemetrySession: step/event streams, finalize gauges, wire metrics.

The exactness contract under test: the run-total gauges a session
freezes at finalize come *directly from the ledgers* (same summation
order as :func:`run_totals_from_parts`), so the written Prometheus and
JSON exports agree with the ledger bit-for-bit.
"""

import json
import math

import numpy as np
import pytest

from repro.cluster import Communicator
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.telemetry import (
    TelemetrySession,
    flatten_samples,
    parse_prometheus_text,
    run_totals_from_parts,
    to_json,
)
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

VOCAB = 60
MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6,
    num_samples=8,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)


def make_trainer(cfg, telemetry=None):
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(MODEL, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train, CORPUS.valid, cfg, telemetry=telemetry,
    )


class TestStreams:
    def test_record_step_updates_metrics(self):
        session = TelemetrySession()
        session.record_step(step=0, loss=2.0, step_time_s=0.25,
                            wire_bytes_per_rank=5000, loss_scale=256.0)
        session.record_step(step=1, loss=float("inf"), skipped=True,
                            loss_scale=128.0)
        reg = session.registry
        assert reg.get("repro_steps_total").value() == 2
        assert reg.get("repro_skipped_steps_total").value() == 1
        assert reg.get("repro_train_loss").value().count == 1  # inf skipped
        assert reg.get("repro_step_time_seconds").value().sum == 0.25
        assert reg.get("repro_loss_scale").value() == 128.0

    def test_record_event_counts_by_kind(self):
        session = TelemetrySession()
        session.record_event("checkpoint", step=3)
        session.record_event("retry", step=4, detail="backoff 0.5s")
        session.record_event("retry", step=4, detail="backoff 1.0s")
        total = session.registry.get("repro_recovery_events_total")
        assert total.value(kind="checkpoint") == 1
        assert total.value(kind="retry") == 2
        assert session.events[1]["detail"] == "backoff 0.5s"

    def test_jsonl_streams_written_and_truncated(self, tmp_path):
        (tmp_path / "steps.jsonl").write_text("stale\n")
        session = TelemetrySession(tmp_path)
        session.record_step(step=0, loss=1.5)
        session.record_event("checkpoint", step=0)
        steps = [json.loads(line)
                 for line in (tmp_path / "steps.jsonl").read_text().splitlines()]
        assert steps == [{"step": 0, "loss": 1.5}]
        (event,) = [json.loads(line)
                    for line in (tmp_path / "events.jsonl").read_text().splitlines()]
        assert event["kind"] == "checkpoint"


class TestTrainerIntegration:
    def test_adopted_trainer_emits_steps(self):
        session = TelemetrySession()
        cfg = TrainConfig(world_size=2, batch=BatchSpec(2, 6), base_lr=0.2)
        trainer = make_trainer(cfg, telemetry=session)
        trainer.train_step()
        trainer.train_step()
        assert len(session.steps) == 2
        record = session.steps[0]
        assert record["step"] == 1
        assert math.isfinite(record["loss"])
        assert record["wire_bytes_per_rank"] > 0
        assert record["step_time_s"] > 0
        assert record["collectives"] > 0
        assert record["world_size"] == 2
        assert record["train_ppl"] == pytest.approx(np.exp(record["loss"]))

    def test_collective_counters_track_the_ledger(self):
        session = TelemetrySession()
        cfg = TrainConfig(world_size=2, batch=BatchSpec(2, 6), base_lr=0.2)
        trainer = make_trainer(cfg, telemetry=session)
        trainer.train_step()
        reg = session.registry
        ledger = trainer.comm.ledger
        by_op = {}
        for e in ledger.events:
            by_op[e.op] = by_op.get(e.op, 0) + e.wire_bytes_per_rank
        for op, wire in by_op.items():
            assert reg.get("repro_collectives_total").value(op=op) > 0
            assert reg.get(
                "repro_collective_wire_bytes_total"
            ).value(op=op) == wire

    def test_wire_codec_run_feeds_codec_histograms(self):
        session = TelemetrySession()
        cfg = TrainConfig(
            world_size=2, batch=BatchSpec(2, 6), base_lr=0.2,
            overlap=True, wire_codec="delta",
        )
        trainer = make_trainer(cfg, telemetry=session)
        trainer.train_step()
        reg = session.registry
        enc = reg.get("repro_wire_encode_seconds").value(codec="delta")
        dec = reg.get("repro_wire_decode_seconds").value(codec="delta")
        assert enc.count > 0 and enc.sum > 0
        assert dec.count > 0 and dec.sum > 0
        assert reg.get("repro_wire_frame_bytes_total").value(codec="delta") > 0
        for kind in ("encode", "decode"):
            total = reg.get(f"repro_wire_{kind}_bytes_total")
            assert total.value(codec="delta") > 0


class TestFinalize:
    def make_session(self, tmp_path=None):
        session = TelemetrySession(tmp_path)
        comm = Communicator(2, track_memory=False)
        with comm.ledger.scope("sync"):
            comm.allreduce([np.ones(64, dtype=np.float32)] * 2, tag="grads")
        session.track(comm)
        session.record_step(step=0, loss=2.0, step_time_s=0.1)
        return session

    def test_run_gauges_equal_ledger_totals_exactly(self):
        session = self.make_session()
        summary = session.finalize()
        totals = run_totals_from_parts(session.parts())
        reg = session.registry
        assert reg.get("repro_run_wire_bytes_per_rank").value() == \
            totals["wire_bytes_per_rank"]
        assert reg.get("repro_run_compression_factor").value() == \
            totals["compression_factor"]
        assert reg.get("repro_run_comm_time_seconds").value() == \
            totals["comm_time_s"]
        assert reg.get("repro_run_simulated_time_seconds").value() == \
            totals["simulated_time_s"]
        assert reg.get("repro_run_generations").value() == 1
        assert reg.get("repro_run_final_world_size").value() == 2
        assert summary["totals"] == totals
        assert summary["trace"]["events"] > 0

    def test_finalize_writes_agreeing_exports(self, tmp_path):
        session = self.make_session(tmp_path)
        session.finalize()
        for name in ("metrics.prom", "metrics.json", "trace.json",
                     "trace_parts.json", "summary.json"):
            assert (tmp_path / name).exists()
        from_prom = flatten_samples(parse_prometheus_text(
            (tmp_path / "metrics.prom").read_text()
        ))
        from_json = flatten_samples(
            json.loads((tmp_path / "metrics.json").read_text())
        )
        assert from_prom == from_json
        assert from_prom == flatten_samples(to_json(session.registry))

    def test_compression_factor_defaults_to_one_without_traffic(self):
        session = TelemetrySession()
        totals = run_totals_from_parts(session.parts())
        assert totals["compression_factor"] == 1.0
        assert totals["generations"] == 0
        assert totals["final_world_size"] == 0
