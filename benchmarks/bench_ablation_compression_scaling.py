"""Ablation: FP16 compression with and without compression-scaling.

Section III-C / V-A: naive FP16 communication loses small-gradient mass
to the half-precision floor; multiplying by F before the down-cast
(compression-scaling) recovers FP32-level accuracy — the paper reports
word-LM epoch-1 perplexity 84.12 (compressed) vs 84.68 (uncompressed).

Real training at miniature scale.  Miniature gradients are ~1000x larger
relative to FP16's range than paper-scale ones, so to reproduce the
underflow phenomenon the "naive" arm uses a deflating scale (the same
operating point a naive cast hits at paper scale); the properly-scaled
arm must match FP32 closely.
"""

import numpy as np

from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.report import format_table
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    perplexity,
)

VOCAB = 200
MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=10, hidden_dim=14, projection_dim=10,
    num_samples=16,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 30_000, seed=8)
STEPS = 120

ARMS = [
    ("fp32 (no compression)", None),
    ("fp16 + scaling F=512", "fp16:512"),
    ("fp16 + scaling F=1024", "fp16:1024"),
    # Deflating scale emulates the naive cast's paper-scale underflow.
    ("fp16 naive (underflow regime)", "fp16:1e-7"),
    # The full wire stack: FP16 value traffic plus the lossless
    # delta-bitpacked index gather (PR 4) — compresses the Θ(G·K)
    # index bytes fp16 alone cannot touch, with zero numeric cost
    # beyond fp16's.
    ("fp16+delta wire policy", "fp16+delta"),
]


def run_all():
    results = {}
    for label, wire_spec in ARMS:
        cfg = TrainConfig(
            world_size=4, batch=BatchSpec(2, 8), base_lr=0.3,
            wire_codec=wire_spec,
        )
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(MODEL, rng, dtype=np.float32),
            lambda params, lr: SGD(params, lr),
            CORPUS.train,
            CORPUS.valid,
            cfg,
        )
        for _ in range(STEPS):
            trainer.train_step()
        results[label] = (
            perplexity(trainer.evaluate()),
            trainer.comm.ledger.total_wire_bytes_per_rank,
        )
    return results


def test_ablation_compression_scaling(benchmark, report):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    ref_ppl, ref_bytes = results["fp32 (no compression)"]
    rows = [
        [label, round(ppl, 2), f"{ppl / ref_ppl - 1:+.1%}",
         f"{nbytes / ref_bytes:.2f}x"]
        for label, (ppl, nbytes) in results.items()
    ]
    table = format_table(
        ["arm", "val ppl", "vs fp32", "wire bytes"],
        rows,
        title="Compression-scaling ablation (word LM, 4 GPUs, real "
        "training; paper: 84.12 compressed vs 84.68 fp32)",
    )
    report("ablation_compression_scaling", table)

    scaled_ppl = results["fp16 + scaling F=512"][0]
    naive_ppl = results["fp16 naive (underflow regime)"][0]
    # Properly-scaled fp16 matches fp32 (the paper's claim)...
    assert abs(scaled_ppl / ref_ppl - 1) < 0.03
    # ...while the underflow regime visibly degrades learning.
    assert naive_ppl > ref_ppl * 1.15
    # And compression halves the value-traffic-dominated wire volume.
    # Value traffic halves (index traffic is unchanged int64).
    assert results["fp16 + scaling F=512"][1] < ref_bytes * 0.6
    # The full wire policy also compresses the index gather, so it must
    # move fewer bytes than fp16-on-values alone while matching fp32
    # accuracy as closely as scaled fp16 does.
    full_ppl, full_bytes = results["fp16+delta wire policy"]
    assert full_bytes < results["fp16 + scaling F=512"][1]
    assert abs(full_ppl / ref_ppl - 1) < 0.03
