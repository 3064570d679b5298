#!/usr/bin/env python
"""Zipf shapes learning too: head words learn first, tail words barely.

Trains a word LM on a Zipfian corpus and reports validation perplexity
*per frequency bucket* (log-spaced over the frequency-ranked vocabulary),
at several points during training.  The head — a handful of types
carrying most tokens — converges within a few dozen steps; the tail
stays near chance.  This is the accuracy-side counterpart of the
communication asymmetry the paper exploits, and the real justification
for vocabulary truncation (Section IV-A): the ids a truncation drops are
precisely the ones the model never learned.

Run:  python examples/head_vs_tail.py
"""

from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus, make_eval_batches
from repro.optim import SGD
from repro.report import format_table
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    bucketed_nll,
)

VOCAB = 400
MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=12, hidden_dim=20, projection_dim=12,
    num_samples=24,
)
CHECKPOINTS = (0, 40, 160, 400)
N_BUCKETS = 4


def main() -> None:
    corpus = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 80_000, seed=23)
    eval_batches = make_eval_batches(
        corpus.valid, BatchSpec(2, 10), max_batches=8
    )
    cfg = TrainConfig(world_size=4, batch=BatchSpec(2, 10), base_lr=0.3)
    trainer = DistributedTrainer(
        lambda rng, rank: WordLanguageModel(MODEL, rng),
        lambda params, lr: SGD(params, lr),
        corpus.train, corpus.valid, cfg,
    )

    snapshots = {}
    done = 0
    for target in CHECKPOINTS:
        while done < target:
            trainer.train_step()
            done += 1
        snapshots[target] = bucketed_nll(
            trainer.model, eval_batches, n_buckets=N_BUCKETS
        )

    bounds = snapshots[CHECKPOINTS[0]].boundaries
    labels = []
    lo = 0
    for b in bounds:
        labels.append(f"ids {lo}-{b - 1}")
        lo = b
    rows = []
    for i, label in enumerate(labels):
        row = [label, snapshots[CHECKPOINTS[0]].token_counts[i]]
        for step in CHECKPOINTS:
            ppl = snapshots[step].perplexity[i]
            row.append("-" if ppl != ppl else round(ppl, 1))  # NaN guard
        rows.append(row)
    print(
        format_table(
            ["frequency bucket", "tokens"] + [f"ppl @ step {s}" for s in CHECKPOINTS],
            rows,
            title=f"Per-bucket validation perplexity while training "
            f"(vocab {VOCAB}, 4 simulated GPUs)",
        )
    )
    print(
        "\nThe head bucket carries most tokens and collapses toward its "
        "entropy almost immediately; tail buckets barely move — the "
        "learning-side face of Zipf's law."
    )


if __name__ == "__main__":
    main()
