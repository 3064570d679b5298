"""Micro-benchmark: the batched rank-execution fast path.

Measures the simulator's steps/sec on the Table-V miniature char-LM
config (``bench_table5_tieba_weak_scaling``) at ``world_size=512`` and
on the word LM with sampled softmax (the end-to-end benchmark's
``word_flat`` config) at ``world_size=64`` and ``128``, three ways each:

* **per_rank** — the slow path: one Python forward/backward pass per
  simulated rank (``batched=False``);
* **batched** — the fast path: all ranks' numpy work stacked along a
  leading rank axis (``batched=True``), with stacked-block gradient
  sync (both arms bind one parameter set and take one optimizer step);
* **exec phase** — the two rank-execution loops in isolation (no sync,
  no optimizer), the part the batched executor actually replaces.

The fast path must be **bit-exact**: a differential arm re-trains
per-rank vs batched over several seeds, for both models, and asserts
identical losses, parameters and optimizer state, bit for bit.

Headline figures land in ``results/BENCH_simulator.json`` via the
``bench_metrics`` fixture.  ``PRE_PR_MS_PER_STEP`` pins the measured
full-step latency of this config *before* the fast path existed (the
per-rank loop plus the then-current per-parameter sync and per-replica
optimizer updates, measured on the reference box; methodology in
``docs/PERFORMANCE.md``) so the recorded speedup-vs-baseline survives
later slow-path improvements.  Gates assert conservative floors —
roughly half the speedups measured on the reference box — so CI noise
does not flake the job; the JSON records the true measured factors
(the word LM's G=128 arm is recorded, not gated).

A fourth arm times the **gradient sync** alone on the end-to-end
benchmark's ``word_wire`` shape (G=32, 20k vocabulary, ``fp16+entropy``
wire codec, fused reduce, overlap) — the host cost of the wire path,
``repro_bench_sim_sync_host_ms`` — with its own differential: losses
within the FP16 wire tolerance of the uncompressed blocking reference,
replicas synchronized, and ledger wire bytes equal to the per-rank loop
of the same config.  Beside it, the dense vs populated-rows allreduce
fold (``repro_bench_sim_fold_ms``) on the end-to-end exchange shapes:
the measurement behind ``RESTRICTED_FOLD_MIN_SKIPPED``.

Set ``REPRO_BENCH_FAST=1`` for the CI smoke mode (fewer measured steps
and differential seeds).
"""

import os
import time

import numpy as np

from repro.cluster import collectives
from repro.data import ONE_BILLION_WORD, TIEBA, BatchSpec, make_corpus
from repro.nn import FullSoftmaxLoss, SampledSoftmaxLoss, functional
from repro.optim import SGD, Adam
from repro.report import format_table
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    assert_replicas_synchronized,
)

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

WORLD = 512
MINI_VOCAB = 150
MINI_CFG = CharLMConfig(
    vocab_size=MINI_VOCAB, embedding_dim=8, hidden_dim=12, depth=2, dropout=0.0
)

#: ``benchmarks/e2e``'s ``word_flat`` model and batch, at two world sizes.
WORD_VOCAB = 2000
WORD_CFG = WordLMConfig(
    vocab_size=WORD_VOCAB, embedding_dim=32, hidden_dim=64, projection_dim=32,
    num_samples=128,
)
WORD_WORLDS = (64, 128)
#: The gated word arm and its floor (reference box: see PERFORMANCE.md).
WORD_GATE_WORLD, WORD_GATE = 64, 1.5

#: Full-step ms/step of this exact config before the batched fast path
#: (per-rank execution, per-parameter stacked sync, per-replica Adam).
PRE_PR_MS_PER_STEP = 530.4

WARMUP_STEPS = 1 if FAST else 2
MEASURE_BATCHED = 4 if FAST else 8
MEASURE_PER_RANK = 2 if FAST else 3
DIFF_SEEDS = 2 if FAST else 5
DIFF_WORLD = 16
DIFF_STEPS = 3


def make_trainer(
    batched: bool, world: int = WORLD, seed: int = 3, model: str = "char"
):
    if model == "word":
        corpus = make_corpus(
            ONE_BILLION_WORD.scaled(WORD_VOCAB), 400_000, seed=seed
        )
        cfg = TrainConfig(
            world_size=world, batch=BatchSpec(4, 20), base_lr=0.3,
            batched=batched,
        )
        return DistributedTrainer(
            lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
            lambda params, lr: SGD(params, lr),
            corpus.train,
            corpus.valid,
            cfg,
        )
    corpus = make_corpus(TIEBA.scaled(MINI_VOCAB), 20_000, seed=seed)
    cfg = TrainConfig(
        world_size=world, batch=BatchSpec(2, 8), base_lr=4e-3, batched=batched
    )
    return DistributedTrainer(
        lambda rng, rank: CharLanguageModel(
            MINI_CFG, rng, dropout_rng=np.random.default_rng(rank)
        ),
        lambda params, lr: Adam(params, lr),
        corpus.train,
        corpus.valid,
        cfg,
    )


def time_steps(trainer, n: int) -> float:
    """Best (min) wall-clock seconds per ``train_step`` over ``n`` steps.

    Min-over-rounds is the robust estimator here: noise on a loaded CI
    runner only ever *adds* time, so the minimum tracks the true cost.
    """
    for _ in range(WARMUP_STEPS):
        trainer.train_step()
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        trainer.train_step()
        best = min(best, time.perf_counter() - start)
    return best


def time_exec_phase(world: int = WORLD, model: str = "char") -> tuple[float, float]:
    """Seconds per rank-execution phase: (per_rank_loop, batched_step)."""
    rounds = 2 if FAST else 3
    slow = make_trainer(batched=False, world=world, model=model)
    slow.train_step()  # warm caches and arena-equivalents
    rngs = slow.seed_assignment.rank_generators(step=slow.data_step)
    per_rank_s = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for rank, replica in enumerate(slow.replicas):
            batch = slow.batcher.batch(rank, 0)
            replica.step(batch, rngs[rank], loss_scale=1.0)
        per_rank_s = min(per_rank_s, time.perf_counter() - start)
        for replica in slow.replicas:
            replica.zero_grad()

    fast = make_trainer(batched=True, world=world, model=model)
    fast.train_step()
    batched_s = float("inf")
    for _ in range(rounds + 2):
        start = time.perf_counter()
        fast.batched_executor.step(
            fast.batcher.step_batches(0), sample_rngs=fast._sample_rngs
        )
        batched_s = min(batched_s, time.perf_counter() - start)
        for replica in fast.replicas:
            replica.zero_grad()
    return per_rank_s, batched_s


def differential(seed: int, model: str = "char") -> None:
    """Assert per-rank and batched training are bit-identical."""
    slow = make_trainer(batched=False, world=DIFF_WORLD, seed=seed, model=model)
    fast = make_trainer(batched=True, world=DIFF_WORLD, seed=seed, model=model)
    assert fast.batched_executor is not None
    for step in range(DIFF_STEPS):
        slow_loss = slow.train_step()
        fast_loss = fast.train_step()
        assert slow_loss == fast_loss, (
            f"{model} seed {seed}, step {step}: losses diverged"
        )
    for rs, rf in zip(slow.replicas, fast.replicas):
        for (name, ps), (_, pf) in zip(
            rs.named_parameters(), rf.named_parameters()
        ):
            assert np.array_equal(ps.data, pf.data), (
                f"{model} seed {seed}: param {name} diverged"
            )
    ds, df = slow.optimizer.state_dict(), fast.optimizer.state_dict()
    assert ds.keys() == df.keys()
    for key, value in ds.items():
        assert np.array_equal(value, df[key]), (
            f"{model} seed {seed}: optimizer state {key} diverged"
        )


def run_arms(world: int = WORLD, model: str = "char"):
    per_rank_s = time_steps(
        make_trainer(batched=False, world=world, model=model), MEASURE_PER_RANK
    )
    batched_s = time_steps(
        make_trainer(batched=True, world=world, model=model), MEASURE_BATCHED
    )
    exec_per_rank_s, exec_batched_s = time_exec_phase(world, model)
    return per_rank_s, batched_s, exec_per_rank_s, exec_batched_s


#: Loss-layer shapes ``(R, N, width, vocab, samples)`` of the end-to-end
#: workloads; ``samples = 0`` is the char LM's full softmax.
LOSS_SHAPES = {
    "word_flat": (64, 80, 32, 2000, 128),
    "word_wire": (32, 160, 32, 20_000, 512),
    "char_batched": (512, 16, 12, 150, 0),
}


def time_loss_layer(R, N, width, vocab, samples) -> dict[str, float]:
    """Forward+backward seconds of one loss layer over ``R`` replicas:
    the per-replica loop, the stack as one block, the stack walked in
    cache-sized blocks (what the layers do)."""
    rng = np.random.default_rng(0)
    hidden = rng.standard_normal((R, N, width))
    targets = rng.integers(0, vocab, size=(R, N))
    if samples:
        layer = SampledSoftmaxLoss(vocab, width, samples, rng, np.float64)
        ids = np.stack([rng.permutation(vocab)[:samples] for _ in range(R)])
        forward = lambda r: layer.forward(
            hidden[r], targets[r], None, sampled_ids=ids[r]
        )
    else:
        layer = FullSoftmaxLoss(vocab, width, rng, np.float64)
        forward = lambda r: layer.forward(hidden[r], targets[r])

    def loop():
        for r in range(R):
            layer.backward(forward(r)[1])

    def stacked():
        layer.backward(forward(slice(None))[1])

    def best(run) -> float:
        seconds = float("inf")
        for _ in range(3 if FAST else 6):
            layer.zero_grad()
            start = time.perf_counter()
            run()
            seconds = min(seconds, time.perf_counter() - start)
        return seconds

    budget = functional._BLOCK_BYTES
    try:
        times = {"loop": best(loop), "blocked": best(stacked)}
        functional._BLOCK_BYTES = 1 << 40  # the whole stack in one block
        times["one_block"] = best(stacked)
    finally:
        functional._BLOCK_BYTES = budget
    return times


#: ``benchmarks/e2e``'s ``word_wire`` model, batch and switches.
WIRE_CFG = WordLMConfig(
    vocab_size=20_000, embedding_dim=32, hidden_dim=16, projection_dim=32,
    num_samples=512,
)
WIRE_WORLD = 32
WIRE_SWITCHES = dict(wire_codec="fp16+entropy", fused_reduce=True, overlap=True)
#: Declared tolerance of the FP16 wire (``word_wire``'s ``loss_rtol``).
WIRE_LOSS_RTOL = 1e-4
WIRE_DIFF_WORLD = 8


def make_wire_trainer(world: int, seed: int = 3, **overrides):
    corpus = make_corpus(ONE_BILLION_WORD.scaled(20_000), 400_000, seed=seed)
    cfg = TrainConfig(
        world_size=world, batch=BatchSpec(8, 20), base_lr=0.3, **overrides
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WIRE_CFG, rng),
        lambda params, lr: SGD(params, lr),
        corpus.train,
        corpus.valid,
        cfg,
    )


def time_wire_sync() -> tuple[float, float]:
    """Best seconds of (``sync_replicas``, the whole step) on ``word_wire``."""
    trainer = make_wire_trainer(WIRE_WORLD, **WIRE_SWITCHES)
    sync = trainer.synchronizer.sync_replicas
    spent = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        sync(*args, **kwargs)
        spent.append(time.perf_counter() - start)

    trainer.synchronizer.sync_replicas = timed
    step_s = time_steps(trainer, MEASURE_BATCHED)
    return min(spent[WARMUP_STEPS:]), step_s


def wire_differential(seed: int) -> None:
    """The wire switches change cost, not what is learned or shipped."""
    wire = make_wire_trainer(WIRE_DIFF_WORLD, seed, **WIRE_SWITCHES)
    loop = make_wire_trainer(
        WIRE_DIFF_WORLD, seed, batched=False, **WIRE_SWITCHES
    )
    plain = make_wire_trainer(WIRE_DIFF_WORLD, seed, batched=False)
    for step in range(DIFF_STEPS):
        got, same, want = (t.train_step() for t in (wire, loop, plain))
        assert got == same, f"wire seed {seed}, step {step}: batched != loop"
        assert abs(got - want) <= WIRE_LOSS_RTOL * abs(want), (
            f"wire seed {seed}, step {step}: loss {got!r} outside the FP16 "
            f"tolerance of the uncompressed reference {want!r}"
        )
    assert_replicas_synchronized(wire.replicas)
    assert (
        wire.comm.ledger.total_wire_bytes_per_rank
        == loop.comm.ledger.total_wire_bytes_per_rank
    ), f"wire seed {seed}: ledger wire bytes differ from the per-rank loop"


#: Unique-exchange blocks ``(R, Ug, mean K, D)`` of the end-to-end
#: workloads (float64 without a codec, float16 on ``word_wire``).
FOLD_SHAPES = {
    "char_batched": (512, 150, 10, 8, np.float64),
    "mesh_hybrid": (16, 443, 70, 32, np.float64),
    "word_flat_in": (64, 303, 24, 32, np.float64),
    "word_flat_out": (64, 1665, 136, 32, np.float64),
    "word_wire_in": (32, 525, 59, 32, np.float16),
    "word_wire_out": (32, 6923, 529, 32, np.float16),
    "word_wire_out_f64": (32, 6923, 529, 32, np.float64),
}


def time_folds(R, Ug, K, D, dtype) -> dict[str, float]:
    """Seconds of the dense and the populated-rows fold of one block."""
    rng = np.random.default_rng(0)
    block = np.zeros((R, Ug, D), dtype=dtype)
    rows = [np.sort(rng.choice(Ug, size=K, replace=False)) for _ in range(R)]
    for member, held in enumerate(rows):
        block[member, held] = rng.standard_normal((K, D))
    folds = {
        "dense": lambda: np.add.reduce(block, axis=0),
        "restricted": lambda: collectives._restricted_fold(block, rows),
    }
    assert folds["dense"]().tobytes() == folds["restricted"]().tobytes()
    times = {}
    for name, fold in folds.items():
        times[name] = float("inf")
        for _ in range(3 if FAST else 10):
            start = time.perf_counter()
            fold()
            times[name] = min(times[name], time.perf_counter() - start)
    return times


def run_all_arms():
    return (
        run_arms(),
        {w: run_arms(w, "word") for w in WORD_WORLDS},
        {name: time_loss_layer(*shape) for name, shape in LOSS_SHAPES.items()},
        time_wire_sync(),
        {name: time_folds(*shape) for name, shape in FOLD_SHAPES.items()},
    )


def test_simulator(benchmark, report, bench_metrics):
    (
        (per_rank_s, batched_s, exec_slow_s, exec_fast_s), word, loss,
        (wire_sync_s, wire_step_s), folds,
    ) = benchmark.pedantic(run_all_arms, rounds=1, iterations=1)
    for seed in range(DIFF_SEEDS):
        differential(seed)
        differential(seed, "word")
        wire_differential(seed)

    speedup = per_rank_s / batched_s
    exec_speedup = exec_slow_s / exec_fast_s
    vs_pre_pr = PRE_PR_MS_PER_STEP / (batched_s * 1e3)

    ms = bench_metrics.gauge(
        "repro_bench_sim_ms_per_step",
        "Full train_step wall-clock at G=512, by arm",
        labelnames=("arm",),
    )
    ms.set(per_rank_s * 1e3, arm="per_rank")
    ms.set(batched_s * 1e3, arm="batched")
    sps = bench_metrics.gauge(
        "repro_bench_sim_steps_per_s",
        "Training steps per second at G=512, by arm",
        labelnames=("arm",),
    )
    sps.set(1.0 / per_rank_s, arm="per_rank")
    sps.set(1.0 / batched_s, arm="batched")
    ex = bench_metrics.gauge(
        "repro_bench_sim_exec_ms",
        "Rank-execution phase wall-clock (no sync/optimizer), by arm",
        labelnames=("arm",),
    )
    ex.set(exec_slow_s * 1e3, arm="per_rank")
    ex.set(exec_fast_s * 1e3, arm="batched")
    bench_metrics.gauge(
        "repro_bench_sim_full_step_speedup",
        "per_rank / batched full-step time, same tree",
    ).set(speedup)
    bench_metrics.gauge(
        "repro_bench_sim_exec_speedup",
        "per_rank / batched rank-execution-phase time",
    ).set(exec_speedup)
    bench_metrics.gauge(
        "repro_bench_sim_pre_pr_ms_per_step",
        "Pinned pre-fast-path full-step baseline (reference box)",
    ).set(PRE_PR_MS_PER_STEP)
    bench_metrics.gauge(
        "repro_bench_sim_speedup_vs_pre_pr",
        "Pinned pre-fast-path baseline / measured batched step",
    ).set(vs_pre_pr)
    bench_metrics.gauge(
        "repro_bench_sim_differential_seeds",
        "Seeds over which per-rank vs batched was verified bit-exact "
        "(each model)",
    ).set(DIFF_SEEDS)
    word_ms = bench_metrics.gauge(
        "repro_bench_sim_word_ms_per_step",
        "Word-LM (word_flat config) full train_step wall-clock",
        labelnames=("world", "arm"),
    )
    word_ex = bench_metrics.gauge(
        "repro_bench_sim_word_exec_ms",
        "Word-LM rank-execution phase wall-clock (no sync/optimizer)",
        labelnames=("world", "arm"),
    )
    word_speedup = bench_metrics.gauge(
        "repro_bench_sim_word_full_step_speedup",
        "Word-LM per_rank / batched full-step time, same tree",
        labelnames=("world",),
    )
    word_exec_speedup = bench_metrics.gauge(
        "repro_bench_sim_word_exec_speedup",
        "Word-LM per_rank / batched rank-execution-phase time",
        labelnames=("world",),
    )
    word_rows = []
    for world, (slow_s, fast_s, ex_slow_s, ex_fast_s) in word.items():
        for arm, step_s, exec_s in (
            ("per_rank", slow_s, ex_slow_s),
            ("batched", fast_s, ex_fast_s),
        ):
            word_ms.set(step_s * 1e3, world=str(world), arm=arm)
            word_ex.set(exec_s * 1e3, world=str(world), arm=arm)
            word_rows.append(
                [f"G={world} {arm}", round(step_s * 1e3, 1),
                 round(1.0 / step_s, 2), round(exec_s * 1e3, 1)]
            )
        word_speedup.set(slow_s / fast_s, world=str(world))
        word_exec_speedup.set(ex_slow_s / ex_fast_s, world=str(world))

    table = format_table(
        ["arm", "full step (ms)", "steps/s", "exec phase (ms)"],
        [
            [
                "per_rank",
                round(per_rank_s * 1e3, 1),
                round(1.0 / per_rank_s, 2),
                round(exec_slow_s * 1e3, 1),
            ],
            [
                "batched",
                round(batched_s * 1e3, 1),
                round(1.0 / batched_s, 2),
                round(exec_fast_s * 1e3, 1),
            ],
        ],
        title=f"Simulator fast path at G={WORLD} (Table-V mini config)",
    )
    loss_ms = bench_metrics.gauge(
        "repro_bench_sim_loss_layer_ms",
        "Loss-layer forward+backward over the replica stack, by walk",
        labelnames=("shape", "walk"),
    )
    for name, times in loss.items():
        for walk, seconds in times.items():
            loss_ms.set(seconds * 1e3, shape=name, walk=walk)
    loss_table = format_table(
        ["shape (R, N, width, vocab, samples)", "loop", "one block", "blocked"],
        [
            [
                f"{name} {LOSS_SHAPES[name]}",
                round(times["loop"] * 1e3, 1),
                round(times["one_block"] * 1e3, 1),
                round(times["blocked"] * 1e3, 1),
            ]
            for name, times in loss.items()
        ],
        title="Loss layer fwd+bwd over the replica stack (ms)",
    )
    bench_metrics.gauge(
        "repro_bench_sim_sync_host_ms",
        "sync_replicas wall-clock on the word_wire shape (G=32, "
        "fp16+entropy, fused reduce, overlap)",
    ).set(wire_sync_s * 1e3)
    bench_metrics.gauge(
        "repro_bench_sim_wire_ms_per_step",
        "Full train_step wall-clock on the word_wire shape",
    ).set(wire_step_s * 1e3)
    fold_ms = bench_metrics.gauge(
        "repro_bench_sim_fold_ms",
        "Rank-order allreduce fold of one unique-exchange block, by fold",
        labelnames=("shape", "fold"),
    )
    for name, times in folds.items():
        for fold, seconds in times.items():
            fold_ms.set(seconds * 1e3, shape=name, fold=fold)
    fold_table = format_table(
        ["shape (R, Ug, mean K, D)", "dtype", "skipped / member", "dense",
         "restricted"],
        [
            [
                f"{name} {(R, Ug, K, D)}",
                np.dtype(dtype).name,
                (Ug - K) * D,
                round(folds[name]["dense"] * 1e3, 2),
                round(folds[name]["restricted"] * 1e3, 2),
            ]
            for name, (R, Ug, K, D, dtype) in FOLD_SHAPES.items()
        ],
        title="Allreduce fold of a zero-padded exchange block (ms; the "
        f"populated-rows fold runs from "
        f"{collectives.RESTRICTED_FOLD_MIN_SKIPPED} skipped elements)",
    )
    wire_footer = (
        f"word_wire shape (G={WIRE_WORLD}, fp16+entropy, fused, overlap): "
        f"sync_replicas {wire_sync_s * 1e3:.1f} ms of a "
        f"{wire_step_s * 1e3:.1f} ms step; differential {DIFF_SEEDS} seeds "
        f"x {DIFF_STEPS} steps at G={WIRE_DIFF_WORLD} (FP16 tolerance "
        f"{WIRE_LOSS_RTOL:g} vs the uncompressed blocking reference, equal "
        "ledger bytes vs the per-rank loop)"
    )
    word_table = format_table(
        ["arm", "full step (ms)", "steps/s", "exec phase (ms)"],
        word_rows,
        title="Word LM with sampled softmax (word_flat config)",
    )
    word_footer = "".join(
        f"\nG={world}: full step {slow_s / fast_s:.2f}x, "
        f"exec phase {ex_slow_s / ex_fast_s:.2f}x"
        for world, (slow_s, fast_s, ex_slow_s, ex_fast_s) in word.items()
    )
    footer = (
        f"\nfull-step speedup:  {speedup:.2f}x (same tree)"
        f"\nexec-phase speedup: {exec_speedup:.2f}x"
        f"\nvs pre-fast-path baseline {PRE_PR_MS_PER_STEP:.1f} ms: "
        f"{vs_pre_pr:.2f}x"
        f"\nbit-exact differential: {DIFF_SEEDS} seeds x {DIFF_STEPS} steps"
        " per model"
    )
    report(
        "micro_simulator",
        "\n\n".join([
            table + footer, word_table + word_footer, loss_table,
            fold_table + "\n" + wire_footer,
        ]),
    )

    # Gates: conservative floors (roughly half the reference-box
    # factors) so shared-runner noise cannot flake CI; the JSON above
    # records the true measured numbers.
    assert speedup >= 3.5, (
        f"batched full step only {speedup:.2f}x faster than per-rank"
    )
    assert exec_speedup >= 3.5, (
        f"batched execution only {exec_speedup:.2f}x faster than per-rank"
    )
    assert batched_s * 1e3 < PRE_PR_MS_PER_STEP, (
        "batched step slower than the pinned pre-fast-path baseline"
    )
    gated_slow_s, gated_fast_s = word[WORD_GATE_WORLD][:2]
    assert gated_slow_s / gated_fast_s >= WORD_GATE, (
        f"word-LM batched full step only {gated_slow_s / gated_fast_s:.2f}x "
        f"faster than per-rank at G={WORD_GATE_WORLD}"
    )
