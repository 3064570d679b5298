#!/usr/bin/env python
"""The seeding trade-off (Section III-B / Figure 7).

Trains the same word LM under different sampled-softmax seed strategies
and prints, for each: the number of distinct seeds, the validation
perplexity reached, and the output-embedding communication it cost —
making the paper's accuracy/communication spectrum concrete.

Expected picture (as in Figure 7): per-rank seeds ("G") give the best
accuracy at the highest cost; a single shared seed gives the worst
accuracy at the lowest cost; Zipf's-freq sits on the pareto frontier,
matching G-seed accuracy at a fraction of the traffic.

Run:  python examples/seeding_tradeoff.py
"""

from repro.core.seeding import SeedStrategy, num_seed_groups, seed_group_sizes
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

WORLD = 8
VOCAB = 300
STEPS = 120

MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=12, hidden_dim=16, projection_dim=12,
    num_samples=24,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 40_000, seed=4)


def train(strategy: SeedStrategy) -> tuple[float, int]:
    cfg = TrainConfig(
        world_size=WORLD,
        batch=BatchSpec(2, 8),
        base_lr=0.3,
        seed_strategy=strategy,
    )
    trainer = DistributedTrainer(
        lambda rng, rank: WordLanguageModel(MODEL, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train,
        CORPUS.valid,
        cfg,
    )
    for _ in range(STEPS):
        trainer.train_step()
    # The output embedding's own share of the packed collectives.
    out_bytes = trainer.comm.ledger.bytes_by_scope()["sync/loss_layer.weight"]
    return perplexity(trainer.evaluate()), out_bytes


def main() -> None:
    rows = []
    for strategy in SeedStrategy:
        ppl, nbytes = train(strategy)
        sizes = seed_group_sizes(strategy, WORLD)
        rows.append(
            [
                strategy.value,
                num_seed_groups(strategy, WORLD),
                "/".join(map(str, sizes)),
                round(ppl, 2),
                f"{nbytes / 1e6:.2f}",
            ]
        )
    print(
        format_table(
            ["strategy", "# seeds", "group sizes", "val ppl", "out-emb MB/GPU"],
            rows,
            title=f"Seeding strategies on {WORLD} simulated GPUs, "
            f"{STEPS} steps (paper Figure 7)",
        )
    )
    print(
        "\nZipf's-freq groups GPUs like word frequencies distribute: a "
        "large head group sharing one seed, small tail groups adding "
        "diversity — the pareto-optimal point the paper identifies."
    )


if __name__ == "__main__":
    main()
