"""Figure 7: sampled-softmax seeding strategies vs accuracy.

Real training with the word LM at 8 simulated GPUs, one run per
strategy: per-rank seeds (the accuracy reference "G"), Zipf's-freq,
log2 G, loge G, log10 G, and a single shared seed.  The paper's finding:
Zipf's-freq matches G-seed accuracy while using only ~G^0.64 distinct
seeds — the pareto-optimal point — and accuracy degrades as the seed
count shrinks toward one.

Alongside accuracy, the bench reports each strategy's measured
output-embedding exchange volume, making the accuracy/communication
trade-off explicit.
"""

from repro.core.seeding import SeedStrategy, num_seed_groups
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
MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=10, hidden_dim=14, projection_dim=10,
    num_samples=24,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 40_000, seed=13)
STRATEGIES = (
    SeedStrategy.PER_RANK,
    SeedStrategy.ZIPF_FREQ,
    SeedStrategy.LOG2,
    SeedStrategy.LOGE,
    SeedStrategy.LOG10,
    SeedStrategy.ALL_SAME,
)
STEPS = 120


def run_all():
    results = {}
    for strategy in STRATEGIES:
        cfg = TrainConfig(
            world_size=WORLD,
            batch=BatchSpec(2, 8),
            base_lr=0.3,
            seed_strategy=strategy,
            data_seed=7,
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
        out_bytes = trainer.comm.ledger.bytes_by_scope()[
            "sync/loss_layer.weight"
        ]
        results[strategy] = (perplexity(trainer.evaluate()), out_bytes)
    return results


def test_fig7_seeding(benchmark, report):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    ref_ppl, ref_bytes = results[SeedStrategy.PER_RANK]
    rows = []
    for strategy in STRATEGIES:
        ppl, nbytes = results[strategy]
        rows.append(
            [
                strategy.value,
                num_seed_groups(strategy, WORLD),
                round(ppl, 2),
                f"{ppl / ref_ppl - 1:+.1%}",
                f"{nbytes / ref_bytes:.2f}x",
            ]
        )
    table = format_table(
        ["strategy", "# seeds", "val ppl", "vs G seeds", "output-emb bytes"],
        rows,
        title=(
            "Figure 7 — seeding strategies (8 GPUs; paper: Zipf's-freq "
            "matches G seeds and is pareto optimal)"
        ),
    )
    report("fig7_seeding", table)

    zipf_ppl, zipf_bytes = results[SeedStrategy.ZIPF_FREQ]
    # Zipf-freq matches the accuracy reference...
    assert zipf_ppl < ref_ppl * 1.10
    # ...while moving fewer output-embedding bytes.
    assert zipf_bytes < ref_bytes
    # Fewer seeds, monotonically less traffic.
    same_bytes = results[SeedStrategy.ALL_SAME][1]
    assert same_bytes < zipf_bytes
