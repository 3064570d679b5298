"""Serving-path benchmark: continuous batching vs naive decode.

Drives the same deterministic Zipfian/bursty request stream through the
continuous-batching :class:`~repro.serve.ServingEngine` (per-request
state caching, replica-sharded embedding lookups on the simulated
cluster) and the naive one-request-at-a-time baseline, then reports the
latency story the paper-era serving stack would publish: makespan
speedup, p50/p99 TTFT, per-token latency, goodput under an SLO, and the
cache counters.

Gates (regressions fail the benchmark):

* continuous batching must beat naive decode on makespan;
* tokens must be identical between the two (scheduling is not allowed
  to change numerics);
* p99 TTFT must stay under a generous ceiling derived from the naive
  arm — batching that *worsens* tail admission latency is a regression;
* the engine enters ``decoder.step`` exactly once per decode step, and
  prefill's ``decoder.advance`` rows are exactly the stream's prompt
  tokens (``prompt.size - 1`` each): every prompt is folded once per
  run, whatever the cache evicts (counts, not clocks — no host-time
  floor).

Set ``REPRO_BENCH_FAST=1`` for the CI smoke mode (fewer requests).
"""

import os

from repro.cluster.communicator import Communicator
from repro.report import format_table
from repro.serve import (
    ArrivalSpec,
    ServeConfig,
    ServingEngine,
    TrafficConfig,
    WordLMDecoder,
    generate_traffic,
    naive_serve,
    percentile,
    report_to_registry,
)
from repro.train.config import WordLMConfig
from repro.train.word_lm import WordLanguageModel

import numpy as np

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
REQUESTS = 24 if FAST else 64
VOCAB = 120
WORLDS = (2,) if FAST else (2, 4)

MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=16, hidden_dim=32, projection_dim=16,
    num_samples=8,
)

TRAFFIC = TrafficConfig(
    num_requests=REQUESTS,
    vocab_size=VOCAB,
    prompt_pool=12,
    arrivals=ArrivalSpec(
        calm_rate=100.0, burst_rate=1000.0, mean_calm_s=0.05, mean_burst_s=0.05
    ),
    slo_s=2.0,
    seed=0,
)

CONFIG = ServeConfig(
    max_batch=8,
    seed=0,
    drop_expired=False,
    decode_token_s=2e-3,
    prefill_token_s=5e-4,
)


def make_decoder():
    return WordLMDecoder(WordLanguageModel(MODEL, np.random.default_rng(0)))


class CallCounts:
    """A decoder seen from the engine: its entries and the rows they carry.

    ``step`` delegates to the wrapped decoder, whose own ``advance`` it
    uses, so ``advance_calls`` / ``advance_rows`` count prefill alone —
    one row of one ``advance`` call is one prefill token.
    """

    def __init__(self, decoder):
        self._decoder = decoder
        self.step_calls = self.advance_calls = self.advance_rows = 0

    def __getattr__(self, name):
        return getattr(self._decoder, name)

    def step(self, x, states):
        self.step_calls += 1
        return self._decoder.step(x, states)

    def advance(self, x, states):
        self.advance_calls += 1
        self.advance_rows += x.shape[0]
        return self._decoder.advance(x, states)


def run_arms():
    requests = generate_traffic(TRAFFIC)
    naive = naive_serve(make_decoder(), requests, CONFIG)
    continuous, counts = {}, {}
    for world in WORLDS:
        counts[world] = CallCounts(make_decoder())
        continuous[world] = ServingEngine(
            counts[world], Communicator(world), CONFIG
        ).run(requests)
    return naive, continuous, counts


def test_serving(benchmark, report, bench_metrics):
    naive, continuous, counts = benchmark.pedantic(
        run_arms, rounds=1, iterations=1
    )
    prompt_tokens = sum(r.prompt.size - 1 for r in generate_traffic(TRAFFIC))

    # ------------------------------------------------------------------
    # gates
    # ------------------------------------------------------------------
    for world, rep in continuous.items():
        for c, n in zip(rep.requests, naive.requests):
            assert c.tokens == n.tokens, (
                f"world {world}, request {c.request_id}: batching changed "
                f"the tokens"
            )
        assert rep.makespan_s < naive.makespan_s, (
            f"continuous batching on {world} GPUs ({rep.makespan_s:.4f}s) "
            f"failed to beat naive decode ({naive.makespan_s:.4f}s)"
        )
        # Tail-latency gate: generous, but catches pathological queueing.
        naive_p99 = percentile(naive.ttft_values(), 99)
        p99 = percentile(rep.ttft_values(), 99)
        assert p99 < naive_p99, (
            f"world {world}: p99 TTFT {p99:.4f}s regressed past the naive "
            f"arm's {naive_p99:.4f}s"
        )
        # Regrouping gates: each piece of decoder work is done once.
        calls = counts[world]
        assert calls.step_calls == rep.decode_steps, (
            f"world {world}: {calls.step_calls} decoder.step calls for "
            f"{rep.decode_steps} decode steps"
        )
        assert calls.advance_rows == prompt_tokens, (
            f"world {world}: prefill folded {calls.advance_rows} rows for "
            f"{prompt_tokens} prompt tokens — each is folded once per run"
        )

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    rows = []
    naive_summary = naive.summary()
    rows.append([
        "naive", "1", f"{naive_summary['makespan_s']:.4f}", "1.00",
        f"{naive_summary['p50_ttft_s']:.4f}",
        f"{naive_summary['p99_ttft_s']:.4f}",
        f"{naive_summary['p99_token_latency_s']:.4f}",
        f"{naive_summary['goodput_rps']:.1f}",
        f"{naive_summary['tokens_per_s']:.0f}",
    ])
    for world, rep in continuous.items():
        s = rep.summary()
        rows.append([
            "continuous", str(world), f"{s['makespan_s']:.4f}",
            f"{naive.makespan_s / s['makespan_s']:.2f}",
            f"{s['p50_ttft_s']:.4f}", f"{s['p99_ttft_s']:.4f}",
            f"{s['p99_token_latency_s']:.4f}",
            f"{s['goodput_rps']:.1f}", f"{s['tokens_per_s']:.0f}",
        ])
    table = format_table(
        ["engine", "GPUs", "makespan (s)", "speedup", "p50 TTFT",
         "p99 TTFT", "p99 tok-lat", "goodput", "tok/s"],
        rows,
        title=f"Serving {REQUESTS} Zipfian/bursty requests "
        f"(max_batch={CONFIG.max_batch}, token-identical arms)",
    )
    widest = continuous[max(WORLDS)]
    cache = widest.cache_stats
    footer = (
        f"\nWidest run: {cache['hits']} cache hits / {cache['misses']} "
        f"misses / {cache['evictions']} evictions, "
        f"{widest.recomputes} recomputes, "
        f"{widest.wire_bytes_per_rank} wire B/rank over "
        f"{widest.decode_steps} decode steps."
    )
    report("serving", table + footer)

    # ------------------------------------------------------------------
    # metrics -> BENCH_serving.json
    # ------------------------------------------------------------------
    widest_summary = report_to_registry(widest, bench_metrics)
    gauge = bench_metrics.gauge(
        "repro_bench_serve_makespan_seconds",
        "Serving makespan by arm", labelnames=("arm",),
    )
    gauge.set(naive.makespan_s, arm="naive")
    for world, rep in continuous.items():
        gauge.set(rep.makespan_s, arm=f"continuous-{world}")
    bench_metrics.gauge(
        "repro_bench_serve_speedup",
        "Naive / continuous makespan at the widest world",
    ).set(naive.makespan_s / widest.makespan_s)
    calls = counts[max(WORLDS)]
    bench_metrics.gauge(
        "repro_bench_serve_decoder_step_calls_per_decode_step",
        "decoder.step calls per decode step at the widest world (1.0: "
        "one call over all active rows)",
    ).set(calls.step_calls / widest.decode_steps)
    bench_metrics.gauge(
        "repro_bench_serve_prefill_advance_calls_per_prefill_token",
        "decoder.advance calls per prefill token at the widest world "
        "(below 1.0: the per-run lock-step fold shares calls)",
    ).set(calls.advance_calls / calls.advance_rows)
    assert widest_summary["total_tokens"] == naive.total_tokens
