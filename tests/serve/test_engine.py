"""Engine-level tests: reports, metrics, telemetry, SLO drops, caching."""

import json
import math

import numpy as np
import pytest

from repro.cluster.communicator import Communicator
from repro.errors import ConfigError
from repro.serve import (
    ServeConfig,
    ServeRequest,
    ServingEngine,
    naive_serve,
    percentile,
    report_to_registry,
)
from repro.telemetry import (
    MetricsRegistry,
    TelemetrySession,
    flatten_samples,
    to_json,
)

from .helpers import (
    CountingDecoder,
    make_word_decoder,
    pressure_config,
    pressure_traffic,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        ServeConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"temperature": -0.1},
            {"cache_budget_bytes": 0},
            {"decode_token_s": -1.0},
            {"prefill_token_s": -1.0},
            {"max_steps": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_budget_must_hold_active_batch(self):
        decoder = make_word_decoder()
        config = ServeConfig(
            max_batch=8, cache_budget_bytes=decoder.state_nbytes * 4
        )
        with pytest.raises(ValueError):
            ServingEngine(decoder, Communicator(2), config)


def serve_scripted(*requests, budget=1 << 22):
    """Serve on the 16-id scripted decoder (8-byte states, batch of 8)."""
    config = ServeConfig(max_batch=8, cache_budget_bytes=budget)
    ServingEngine(CountingDecoder(), Communicator(2), config).run(list(requests))


#: Every serving input error, each a value the caller chose.
INPUT_ERRORS = {
    "prompt-id-past-vocab": lambda: serve_scripted(ServeRequest(0, [16, 3], 3)),
    "negative-prompt-id": lambda: serve_scripted(ServeRequest(0, [3, -1], 3)),
    "eos-past-vocab": lambda: serve_scripted(ServeRequest(0, [3], 3, eos_token=16)),
    "nan-arrival": lambda: ServeRequest(0, [3], 3, arrival_s=float("nan")),
    "inf-arrival": lambda: ServeRequest(0, [3], 3, arrival_s=float("inf")),
    "nan-slo": lambda: ServeRequest(0, [3], 3, slo_s=float("nan")),
    "empty-prompt": lambda: ServeRequest(0, [], 3),
    "zero-max-new-tokens": lambda: ServeRequest(0, [3], 0),
    "duplicate-ids": lambda: serve_scripted(*[ServeRequest(0, [3], 3)] * 2),
    "budget-below-batch": lambda: serve_scripted(budget=7 * 8),
}


class TestHostileStream:
    """Bad ids and times fail up front and typed, not as a wrong answer."""

    @staticmethod
    def serve(prompt, **kwargs):
        engine = ServingEngine(make_word_decoder(), Communicator(2))  # 50 words
        good = ServeRequest(7, np.array([3, 4]), 3)
        engine.run([good, ServeRequest(8, np.array(prompt), 3, **kwargs)])

    def test_negative_prompt_id_rejected(self):
        # was served as the last vocabulary row: same tokens as [3, 49]
        with pytest.raises(ValueError, match="request 8"):
            self.serve([3, -1])

    def test_out_of_vocab_prompt_id_rejected(self):
        # was an IndexError five frames down in the sharded lookup
        with pytest.raises(ValueError, match="request 8"):
            self.serve([50, 3])

    def test_out_of_vocab_eos_rejected(self):
        with pytest.raises(ValueError, match="request 8"):
            self.serve([3, 4], eos_token=50)

    def test_stream_validated_before_any_work(self):
        engine = ServingEngine(make_word_decoder(), Communicator(2))
        with pytest.raises(ValueError):
            engine.run(
                [ServeRequest(0, np.array([3]), 3), ServeRequest(1, np.array([-1]), 3)]
            )
        assert engine.scheduler is None and engine.comm.timeline.makespan == 0.0

    def test_nan_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival_s"):
            ServeRequest(0, np.array([3]), 3, arrival_s=float("nan"))

    def test_infinite_arrival_rejected(self):
        # was accepted, and the report's makespan_s came out inf
        with pytest.raises(ValueError, match="arrival_s"):
            ServeRequest(0, np.array([3]), 3, arrival_s=float("inf"))

    def test_nan_slo_rejected(self):
        with pytest.raises(ValueError, match="slo_s"):
            ServeRequest(0, np.array([3]), 3, slo_s=float("nan"))

    @pytest.mark.parametrize("bad", INPUT_ERRORS.values(), ids=INPUT_ERRORS)
    def test_input_errors_are_config_errors(self, bad):
        with pytest.raises(ConfigError):
            bad()


def random_requests(n, seed):
    rng = np.random.default_rng(seed)
    return [
        ServeRequest(
            request_id=rid,
            prompt=rng.integers(0, 16, size=int(rng.integers(1, 7))),
            max_new_tokens=int(rng.integers(1, 6)),
            arrival_s=float(rng.uniform(0.0, 0.05)),
        )
        for rid in range(n)
    ]


class TestDecoderWorkDoneOnce:
    """Call counts, not clocks: one step per decode step, none in prefill."""

    def test_step_calls_equal_decode_steps(self):
        decoder = CountingDecoder()
        requests = random_requests(20, seed=11)
        config = pressure_config(max_batch=4)
        report = ServingEngine(decoder, Communicator(3), config).run(requests)
        assert report.decode_steps < report.total_tokens  # rows shared steps
        # every step call is a decode step, so prefill never called step
        assert decoder.step_calls == report.decode_steps
        prefill_tokens = sum(r.prompt.size - 1 for r in requests)
        assert 0 < decoder.advance_calls < prefill_tokens  # lock step shared calls

    @pytest.mark.parametrize("budget_states", [4, 64])
    def test_each_prompt_token_folded_once_per_run(self, budget_states):
        # Admission misses, speculative prefills and recomputes after
        # eviction all copy the run's prompt-table row: with no
        # readmission, the fold is every prompt token exactly once.
        decoder = CountingDecoder()
        requests = random_requests(40, seed=12)
        config = pressure_config(
            max_batch=3, cache_budget_bytes=budget_states * decoder.state_nbytes
        )
        report = ServingEngine(decoder, Communicator(2), config).run(requests)
        assert report.readmissions == 0
        assert (report.recomputes > 0) == (budget_states == 4)
        assert decoder.advance_rows == sum(r.prompt.size - 1 for r in requests)

    def test_empty_stream(self):
        decoder = CountingDecoder()
        report = ServingEngine(decoder, Communicator(2)).run([])
        assert report.requests == () and report.decode_steps == 0
        assert decoder.advance_calls == decoder.step_calls == 0


class TestReport:
    def test_metrics_internally_consistent(self):
        decoder = make_word_decoder()
        requests = pressure_traffic(n=12)
        config = pressure_config()
        report = ServingEngine(decoder, Communicator(2), config).run(requests)

        assert len(report.requests) == 12
        assert report.total_tokens == sum(len(r.tokens) for r in report.requests)
        assert report.decode_steps >= max(len(r.tokens) for r in report.requests)
        assert report.makespan_s > 0
        assert report.wire_bytes_per_rank > 0  # sharded lookups hit the ledger
        assert report.generations == 1
        summary = report.summary()
        assert summary["finished"] == 12 and summary["dropped"] == 0
        assert summary["p50_ttft_s"] <= summary["p99_ttft_s"]
        assert summary["tokens_per_s"] == pytest.approx(
            report.total_tokens / report.makespan_s
        )
        assert json.dumps(summary)  # JSON-serialisable end to end

    def test_token_times_follow_simulated_clock(self):
        decoder = make_word_decoder()
        requests = pressure_traffic(n=8)
        report = ServingEngine(
            decoder, Communicator(2), pressure_config()
        ).run(requests)
        for record in report.requests:
            assert record.token_times_s[0] >= record.arrival_s
            assert all(
                b >= a
                for a, b in zip(record.token_times_s, record.token_times_s[1:])
            )
            assert record.finish_s == record.token_times_s[-1]
            assert record.ttft_s >= 0
            gaps = record.per_token_latencies_s()
            assert len(gaps) == len(record.tokens)
            assert all(g >= 0 for g in gaps)

    def test_idle_cluster_advances_to_arrivals(self):
        # One late request: the engine must idle-advance, not spin.
        decoder = CountingDecoder()
        requests = [
            ServeRequest(
                request_id=0,
                prompt=np.array([1], dtype=np.int64),
                max_new_tokens=2,
                arrival_s=3.0,
            )
        ]
        report = ServingEngine(
            decoder, Communicator(1), ServeConfig(max_batch=1)
        ).run(requests)
        assert report.requests[0].token_times_s[0] >= 3.0
        assert report.makespan_s >= 3.0

    def test_continuous_beats_naive_under_load(self):
        decoder = make_word_decoder()
        requests = pressure_traffic(n=16)
        config = pressure_config()
        continuous = ServingEngine(decoder, Communicator(3), config).run(requests)
        naive = naive_serve(decoder, requests, config)
        assert continuous.makespan_s < naive.makespan_s


class TestSLODrops:
    def test_tight_slo_drops_queued_requests(self):
        decoder = make_word_decoder()
        requests = pressure_traffic(n=24, slo_s=0.02)
        config = pressure_config(drop_expired=True)
        report = ServingEngine(decoder, Communicator(2), config).run(requests)
        assert len(report.dropped) > 0
        assert len(report.dropped) + len(report.finished) == 24
        for record in report.dropped:
            assert record.tokens == ()
            assert record.finish_reason == "slo_expired"
            assert math.isnan(record.ttft_s)
        # goodput only counts SLO-met completions
        assert report.goodput_rps() <= len(report.finished) / report.makespan_s

    def test_infinite_slo_never_drops(self):
        decoder = make_word_decoder()
        requests = pressure_traffic(n=10)
        report = ServingEngine(
            decoder, Communicator(2), pressure_config(drop_expired=True)
        ).run(requests)
        assert len(report.dropped) == 0


class TestCacheIntegration:
    def test_speculative_prefill_produces_hits(self):
        decoder = make_word_decoder()
        requests = pressure_traffic(n=24)
        report = ServingEngine(
            decoder, Communicator(3), pressure_config()
        ).run(requests)
        assert report.cache_stats["hits"] > 0
        assert report.recomputes == 0  # ample budget: no state lost

    def test_tiny_budget_forces_eviction_and_recompute(self):
        decoder = make_word_decoder()
        requests = pressure_traffic(n=24)
        config = pressure_config(
            cache_budget_bytes=4 * decoder.state_nbytes, max_batch=3
        )
        report = ServingEngine(decoder, Communicator(3), config).run(requests)
        assert report.cache_stats["evictions"] > 0
        assert report.recomputes > 0

    def test_cache_memory_charged_to_devices(self):
        decoder = make_word_decoder()
        comm = Communicator(2)
        engine = ServingEngine(decoder, comm, pressure_config())
        engine.run(pressure_traffic(n=8))
        # resident states showed up in the standard peak accounting
        assert all(
            dev.peak_bytes >= decoder.state_nbytes for dev in comm.devices
        )

    def test_cache_empty_after_run(self):
        decoder = make_word_decoder()
        engine = ServingEngine(decoder, Communicator(2), pressure_config())
        engine.run(pressure_traffic(n=8))
        assert len(engine.cache) == 0
        assert engine.cache.resident_bytes == 0


class TestTelemetry:
    def test_steps_and_metrics_recorded(self, tmp_path):
        decoder = make_word_decoder()
        session = TelemetrySession(directory=tmp_path)
        engine = ServingEngine(
            decoder, Communicator(2), pressure_config(), telemetry=session
        )
        report = engine.run(pressure_traffic(n=8))
        summary = report_to_registry(report, session.registry)
        session.finalize()

        steps = [
            json.loads(line)
            for line in (tmp_path / "steps.jsonl").read_text().splitlines()
        ]
        assert len(steps) == report.decode_steps
        assert all("active" in s and "sim_time_s" in s for s in steps)

        assert not (tmp_path / "metrics.prom").exists()
        names = {
            name for name, _, _ in flatten_samples(
                json.loads((tmp_path / "metrics.json").read_text())
            )
        }
        assert {
            "repro_serve_ttft_seconds",
            "repro_serve_p99_ttft_seconds",
            "repro_serve_requests_total",
        } <= names
        assert summary["p99_ttft_s"] >= summary["p50_ttft_s"]

    def test_report_to_registry_values(self):
        decoder = make_word_decoder()
        report = ServingEngine(
            decoder, Communicator(2), pressure_config()
        ).run(pressure_traffic(n=8))
        registry = MetricsRegistry()
        summary = report_to_registry(report, registry)
        flat = flatten_samples(to_json(registry))
        outcomes = {
            dict(labels).get("outcome")
            for name, labels, _ in flat
            if name == "repro_serve_requests_total"
        }
        assert outcomes & {"length", "eos"}
        assert any(name == "repro_serve_tokens_total" for name, _, _ in flat)
        assert summary["total_tokens"] == report.total_tokens

    def test_cache_eviction_counts_exported(self):
        decoder = make_word_decoder()
        config = pressure_config(
            cache_budget_bytes=4 * decoder.state_nbytes, max_batch=3
        )
        report = ServingEngine(decoder, Communicator(2), config).run(
            pressure_traffic(n=24)
        )
        assert report.cache_stats["evictions"] > 0
        registry = MetricsRegistry()
        report_to_registry(report, registry)
        flat = flatten_samples(to_json(registry))
        assert any(("kind", "evict") in labels for _, labels, _ in flat)


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_nan_values_filtered(self):
        assert percentile([1.0, float("nan"), 3.0], 50) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == 5.0
