"""Chaos composition: serving under fault injection stays correct.

The issue's graceful-degradation contract: with a ``FaultPlan`` driving
a :class:`~repro.cluster.failures.ChaosCommunicator`, in-flight requests
on an evicted replica are re-admitted (never lost), token output stays
identical to the clean run, and tail latency degrades — the faulted
makespan and p99 TTFT are worse, not broken.
"""

import numpy as np
import pytest

from repro.cluster.communicator import Communicator
from repro.cluster.failures import (
    ChaosCommunicator,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.serve import ServingEngine, percentile
from repro.serve.decoders import fold_histories
from repro.telemetry import TelemetrySession

from .helpers import make_word_decoder, pressure_config, pressure_traffic

WORLD = 3


def rank_loss_plan(collective_index=6, rank=1):
    return FaultPlan(
        [
            FaultEvent(
                kind=FaultKind.RANK_LOSS,
                collective_index=collective_index,
                rank=rank,
            )
        ]
    )


def run_pair(plan, n=24, **config_overrides):
    """Run the same traffic clean and under chaos; return both reports."""
    requests = pressure_traffic(n=n)
    config = pressure_config(**config_overrides)

    clean_engine = ServingEngine(
        make_word_decoder(), Communicator(WORLD), config
    )
    clean = clean_engine.run(requests)

    chaos_engine = ServingEngine(
        make_word_decoder(),
        ChaosCommunicator(WORLD, plan=plan),
        config,
    )
    chaotic = chaos_engine.run(requests)
    return clean, chaotic, chaos_engine


class TestTransientFaults:
    def test_retries_preserve_tokens_and_charge_time(self):
        plan = FaultPlan.random(
            seed=5, world_size=WORLD, num_collectives=30, n_transient=4
        )
        clean, chaotic, engine = run_pair(plan)
        for c, f in zip(clean.requests, chaotic.requests):
            assert c.tokens == f.tokens
        assert chaotic.generations == 1  # transient faults never shrink
        assert chaotic.makespan_s > clean.makespan_s  # backoff is charged


class TestRankLoss:
    def test_inflight_requests_readmitted_not_lost(self):
        clean, chaotic, engine = run_pair(rank_loss_plan())
        assert chaotic.generations == 2
        assert chaotic.readmissions >= 1
        assert engine.comm.world_size == WORLD - 1
        # nothing lost: every request finishes with its full budget
        assert len(chaotic.finished) == len(clean.finished) == 24
        readmit_events = [
            e for e in engine.scheduler.events if e[0] == "readmitted"
        ]
        assert len(readmit_events) == chaotic.readmissions

    def test_tokens_identical_across_recovery(self):
        clean, chaotic, _ = run_pair(rank_loss_plan())
        for c, f in zip(clean.requests, chaotic.requests):
            assert c.tokens == f.tokens, f"request {c.request_id} diverged"
            assert c.finish_reason == f.finish_reason

    def test_p99_degrades_gracefully(self):
        clean, chaotic, _ = run_pair(rank_loss_plan())
        clean_p99 = percentile(clean.ttft_values(), 99)
        chaos_p99 = percentile(chaotic.ttft_values(), 99)
        # worse, not broken: finite tail latency above the clean run
        assert chaos_p99 > clean_p99
        assert np.isfinite(chaos_p99)
        assert chaotic.makespan_s > clean.makespan_s

    def test_recomputed_states_counted(self):
        _, chaotic, _ = run_pair(rank_loss_plan())
        # readmitted requests replay their token history on re-admission
        assert chaotic.recomputes >= chaotic.readmissions >= 1

    def test_readmitted_state_is_the_full_fold(self):
        # A readmitted request folds only its emitted suffix on top of its
        # prompt-table row; the slot must hold, bitwise, the fold of its
        # whole history from a fresh state.
        decoder = make_word_decoder()
        engine = ServingEngine(
            decoder, ChaosCommunicator(WORLD, plan=rank_loss_plan()),
            pressure_config(),
        )
        replay, checked = engine._replay, []

        def checked_replay(rids):
            replay(rids)
            for rid in rids:
                rec, entry = engine.scheduler.records[rid], engine.cache.peek(rid)
                if entry is None or not rec.emitted:
                    continue
                full = fold_histories(decoder, [rec.consumed_tokens[:-1]])
                for part, ref in zip(engine.cache.rows([entry.slot]), full):
                    np.testing.assert_array_equal(part, ref, strict=True)
                checked.append(rid)

        engine._replay = checked_replay
        report = engine.run(pressure_traffic(n=24))
        assert report.readmissions >= 1 and checked

    def test_world_of_one_rank_loss_is_fatal(self):
        from repro.cluster.failures import RankFailureError

        requests = pressure_traffic(n=4)
        engine = ServingEngine(
            make_word_decoder(),
            ChaosCommunicator(
                1, plan=rank_loss_plan(collective_index=0, rank=0)
            ),
            pressure_config(max_batch=2),
        )
        with pytest.raises(RankFailureError):
            engine.run(requests)


class TestChaosTelemetry:
    def test_generations_tracked_and_event_recorded(self, tmp_path):
        session = TelemetrySession(directory=tmp_path)
        requests = pressure_traffic(n=24)
        engine = ServingEngine(
            make_word_decoder(),
            ChaosCommunicator(WORLD, plan=rank_loss_plan()),
            pressure_config(),
            telemetry=session,
        )
        engine.run(requests)
        session.finalize()
        events = (tmp_path / "events.jsonl").read_text()
        assert "rank_loss" in events
        labels = [part.label for part in session.parts()]
        assert "serve-gen0" in labels and "serve-gen1" in labels
