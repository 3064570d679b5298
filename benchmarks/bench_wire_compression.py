"""Wire compression on the unique-index ALLGATHER: measured bytes.

The uniqueness exchange (paper §III-A) ships every rank's sorted unique
word indices to every other rank — Θ(G·K) int64 traffic that §III-C's
FP16 value codec cannot touch.  This bench measures what the lossless
frame codecs of :mod:`repro.core.wire` actually remove from that wire:

1. **Byte-reduction sweep** — word-LM-shaped Zipf batches
   (1B-Word exponent/shift, 100K vocabulary) across GPU counts up to
   G=128 and per-rank batch sizes; the reported factor is *measured*
   from the cost ledger (logical bytes / encoded wire bytes), not
   estimated.  Gate: >= 4x at G=128 with the paper's 32x20 batch.
2. **Bit-exactness** — a real mini word-LM training run under
   ``wire_codec="delta"`` finishes with weights identical bit-for-bit
   to the uncompressed run.

Set ``REPRO_BENCH_FAST=1`` for the CI smoke mode (fewer GPU counts and
batch shapes).
"""

import os

import numpy as np

from repro.cluster import Communicator
from repro.core.compression import Fp16Codec
from repro.core.wire import (
    DeltaBitpackCodec,
    EntropyCodec,
    iencoded_allgather,
)
from repro.core.wire.cost import codec_throughput
from repro.data import BatchSpec, ONE_BILLION_WORD, ZipfMandelbrot, make_corpus
from repro.optim import SGD
from repro.perf import (
    CodecThroughput,
    calibrate_codec_throughput,
    fused_reduce_time,
    timeline_fused_reduce,
    uniform_fused_plan,
)
from repro.perf.hardware import PAPER_PLATFORM
from repro.perf.model import CHAR_LM_TIEBA, WORD_LM_1B
from repro.report import format_table
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

VOCAB = 100_000  # the paper's word-LM vocabulary
ZIPF = ZipfMandelbrot(
    vocab_size=VOCAB,
    exponent=ONE_BILLION_WORD.zipf_exponent,
    shift=ONE_BILLION_WORD.zipf_shift,
)

GPU_COUNTS = [8, 128] if FAST else [8, 32, 128]
#: Tokens per rank per step: the paper's 32 seqs x 20 steps, plus a
#: smaller and a larger shape to show the K-dependence.
BATCH_TOKENS = [640] if FAST else [160, 640, 2560]
PAPER_BATCH = 640


def _rank_indices(world: int, tokens: int, seed: int = 0) -> list[np.ndarray]:
    """Per-rank sorted unique word indices of one simulated step."""
    rng = np.random.default_rng(seed)
    return [
        np.unique(ZIPF.sample(tokens, rng).astype(np.int64))
        for _ in range(world)
    ]


def measure_reduction(world: int, tokens: int, codec) -> tuple[float, int, int]:
    """(measured logical/wire factor, logical bytes, wire bytes)."""
    vectors = _rank_indices(world, tokens)
    comm = Communicator(world, track_memory=False)
    iencoded_allgather(comm, vectors, codec, tag="idx").wait()
    wire = comm.ledger.total_wire_bytes_per_rank
    factor = comm.ledger.compression_factor("idx")
    logical = int(round(wire * factor))
    return factor, logical, wire


def byte_sweep():
    rows = []
    paper_factor = None
    paper_entropy_factor = None
    for world in GPU_COUNTS:
        for tokens in BATCH_TOKENS:
            factor, logical, wire = measure_reduction(
                world, tokens, DeltaBitpackCodec()
            )
            ent_factor, _, _ = measure_reduction(
                world, tokens, EntropyCodec()
            )
            mean_k = np.mean(
                [v.size for v in _rank_indices(world, tokens)]
            )
            rows.append(
                [world, tokens, int(mean_k), f"{logical / 1024:.1f}",
                 f"{wire / 1024:.1f}", f"{factor:.2f}x", f"{ent_factor:.2f}x"]
            )
            if world == 128 and tokens == PAPER_BATCH:
                paper_factor = factor
                paper_entropy_factor = ent_factor
    return rows, paper_factor, paper_entropy_factor


TRAIN_VOCAB = 120
TRAIN_MODEL = WordLMConfig(
    vocab_size=TRAIN_VOCAB, embedding_dim=8, hidden_dim=10, projection_dim=8,
    num_samples=12,
)
TRAIN_STEPS = 20 if FAST else 60


def bit_exact_check() -> tuple[bool, float]:
    corpus = make_corpus(ONE_BILLION_WORD.scaled(TRAIN_VOCAB), 20_000, seed=5)
    finals = []
    factors = []
    for spec in (None, "delta"):
        cfg = TrainConfig(
            world_size=4, batch=BatchSpec(2, 8), base_lr=0.3, wire_codec=spec
        )
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(TRAIN_MODEL, rng),
            lambda params, lr: SGD(params, lr),
            corpus.train,
            corpus.valid,
            cfg,
        )
        for _ in range(TRAIN_STEPS):
            trainer.train_step()
        finals.append(
            {
                name: p.data.copy()
                for name, p in trainer.replicas[0].named_parameters()
            }
        )
        factors.append(trainer.comm.ledger.compression_factor(":indices"))
    base, wired = finals
    exact = set(base) == set(wired) and all(
        np.array_equal(base[k], wired[k]) for k in base
    )
    return exact, factors[1]


def run_all():
    sweep_rows, paper_factor, paper_entropy = byte_sweep()
    exact, train_factor = bit_exact_check()
    return sweep_rows, paper_factor, paper_entropy, exact, train_factor


def test_wire_compression(benchmark, report, bench_metrics):
    (
        sweep_rows, paper_factor, paper_entropy, exact, train_factor,
    ) = benchmark.pedantic(run_all, rounds=1, iterations=1)

    factor_gauge = bench_metrics.gauge(
        "repro_bench_compression_factor",
        "Measured logical/wire reduction", labelnames=("setting",),
    )
    factor_gauge.set(paper_factor, setting="paper_g128")
    factor_gauge.set(paper_entropy, setting="paper_g128_entropy")
    factor_gauge.set(train_factor, setting="training")
    bench_metrics.gauge(
        "repro_bench_bit_exact", "1 when delta training matched baseline"
    ).set(int(exact))
    # Host-measured codec throughput, published via the perf-layer hook.
    for codec in (DeltaBitpackCodec(), EntropyCodec(), Fp16Codec()):
        calibrate_codec_throughput(
            codec, nbytes=1 << 20, repeats=2, registry=bench_metrics
        )

    sweep = format_table(
        ["GPUs", "tokens/rank", "mean K", "logical KiB", "wire KiB",
         "delta", "entropy"],
        sweep_rows,
        title="Unique-index ALLGATHER wire reduction (1B-Word Zipf, "
        f"vocab {VOCAB:,}; measured from the cost ledger)",
    )
    trailer = (
        f"G=128 paper-batch measured reduction: {paper_factor:.2f}x "
        "(gate: >= 4x)\n"
        f"G=128 paper-batch entropy-codec reduction: {paper_entropy:.2f}x "
        "(gate: > delta)\n"
        f"delta-codec training bit-exact vs uncompressed: {exact} "
        f"(measured index compression during training: {train_factor:.2f}x)"
    )
    report("wire_compression", f"{sweep}\n\n{trailer}")

    # The ISSUE's acceptance gates.
    assert paper_factor is not None and paper_factor >= 4.0
    assert paper_entropy is not None and paper_entropy > paper_factor
    assert exact
    assert train_factor > 1.0


# ---------------------------------------------------------------------------
# Fused compress-reduce arm: dense-gradient allreduce step-time wins on the
# paper's Table III / Table V configurations, plus the recurrence gate.
# ---------------------------------------------------------------------------

#: (workload, GPUs): Table III word LM at G=32, Table V Tieba char LM at
#: the paper's largest weak-scaling point.
FUSED_CONFIGS = [
    (WORD_LM_1B, 32),
    (CHAR_LM_TIEBA, 24),
]
FUSED_CHUNK = 4 << 20


def fused_step_time_sweep():
    """Raw vs fused-FP16 dense allreduce time per step, analytic plans.

    The dense gradient is ``dense_param_count`` float32s; FP16 on the
    wire halves every hop.  Both sides use the same chunked fused ring
    (identical scheduling), so the win isolates the codec, and each
    plan's closed recurrence is cross-checked against the Timeline
    replay (the <= 1e-9 ISSUE gate).
    """
    rows = []
    wins = []
    host_wins = []
    break_even = []
    worst_rel = 0.0
    tp = codec_throughput("fp16")
    # ZipCCL's question: does the win survive the codec's real cost?
    # Re-cost the fused plan with this host's measured FP16 throughput,
    # and find the codec speed (encode, decode 2x that) where it ties raw.
    host_tp = calibrate_codec_throughput(Fp16Codec(), nbytes=1 << 20, repeats=2)
    for workload, world in FUSED_CONFIGS:
        dense_bytes = int(workload.dense_param_count) * 4
        link = PAPER_PLATFORM.fabric.ring_link(world)
        raw_plan = uniform_fused_plan(
            dense_bytes, world, chunk_bytes=FUSED_CHUNK, charge_codec=False
        )
        fp16_plan = uniform_fused_plan(
            dense_bytes, world, encoded_ratio=2.0, chunk_bytes=FUSED_CHUNK
        )
        raw_t = fused_reduce_time(raw_plan, link, None)
        fused_t = fused_reduce_time(fp16_plan, link, tp)
        for plan, plan_tp in ((raw_plan, None), (fp16_plan, tp)):
            analytic = fused_reduce_time(plan, link, plan_tp)
            replay = timeline_fused_reduce(plan, link, plan_tp)
            worst_rel = max(worst_rel, abs(replay - analytic) / analytic)
        win = raw_t / fused_t
        wins.append(win)
        host_t = fused_reduce_time(fp16_plan, link, host_tp)
        host_wins.append(raw_t / host_t)
        lo, hi = 1e6, 1e13  # encode bytes/s bracketing the tie
        for _ in range(60):
            mid = (lo * hi) ** 0.5
            tied = fused_reduce_time(
                fp16_plan, link, CodecThroughput(mid, 2 * mid)
            )
            lo, hi = (lo, mid) if tied < raw_t else (mid, hi)
        break_even.append(hi)
        rows.append(
            [workload.name, world, f"{dense_bytes / 1e6:.0f} MB",
             f"{raw_t * 1e3:.1f}", f"{fused_t * 1e3:.1f}", f"{win:.2f}x",
             f"{host_t * 1e3:.1f}", f"{raw_t / host_t:.2f}x",
             f"{hi / 1e9:.1f} GB/s"]
        )
    return rows, wins, worst_rel, host_wins, break_even


def test_wire(benchmark, report, bench_metrics):
    rows, wins, worst_rel, host_wins, break_even = benchmark.pedantic(
        fused_step_time_sweep, rounds=1, iterations=1
    )

    win_gauge = bench_metrics.gauge(
        "repro_bench_fused_reduce_win",
        "Raw/fused dense-allreduce time ratio", labelnames=("workload",),
    )
    host_gauge = bench_metrics.gauge(
        "repro_bench_fused_reduce_win_host_codec",
        "Raw/fused ratio with the FP16 codec at this host's measured speed",
        labelnames=("workload",),
    )
    even_gauge = bench_metrics.gauge(
        "repro_bench_fused_break_even_encode_bps",
        "FP16 encode bytes/s (decode 2x) at which fused ties raw",
        labelnames=("workload",),
    )
    for (workload, world), win, host_win, even in zip(
        FUSED_CONFIGS, wins, host_wins, break_even
    ):
        win_gauge.set(win, workload=workload.name)
        host_gauge.set(host_win, workload=workload.name)
        even_gauge.set(even, workload=workload.name)
    bench_metrics.gauge(
        "repro_bench_fused_recurrence_rel_err",
        "Worst fused recurrence-vs-timeline relative error",
    ).set(worst_rel)

    table = format_table(
        ["workload", "GPUs", "dense grad", "raw ms", "fused fp16 ms", "win",
         "at host codec speed ms", "win", "break-even encode"],
        rows,
        title="Fused compress-reduce: dense-gradient ring allreduce on the "
        "paper platform (analytic plans, Timeline-verified)",
    )
    trailer = (
        f"fused recurrence vs Timeline worst relative error: "
        f"{worst_rel:.2e} (gate: <= 1e-9)\n"
        "step-time gate: fused fp16 beats raw on every config"
    )
    report("wire_fused", f"{table}\n\n{trailer}")

    assert worst_rel <= 1e-9
    assert all(win > 1.0 for win in wins)
