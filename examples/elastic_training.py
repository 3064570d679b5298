#!/usr/bin/env python
"""Elastic training: survive a rank failure mid-run.

The paper's hero run holds 192 GPUs for 34 hours — long enough that
hardware *will* misbehave.  This example runs the standard recovery
pattern on the simulated cluster:

1. train with periodic checkpoints;
2. a rank dies mid-step (a one-event ``FaultPlan`` replayed by a
   ``ChaosCommunicator``) — the synchronous collective surfaces the
   failure to every rank;
3. a replacement job restores the last checkpoint on fresh hardware and
   continues — bit-identical to a run that never crashed (verified).

Run:  python examples/elastic_training.py
"""

import pathlib
import tempfile

import numpy as np

from repro.cluster import (
    ChaosCommunicator,
    FaultEvent,
    FaultKind,
    FaultPlan,
    RankFailureError,
)
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    load_checkpoint,
    perplexity,
    save_checkpoint,
)

VOCAB = 150
MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=12, hidden_dim=16, projection_dim=12,
    num_samples=16,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 30_000, seed=41)
WORLD = 4
TOTAL_STEPS = 60
CHECKPOINT_EVERY = 20


def build_trainer(comm=None) -> DistributedTrainer:
    cfg = TrainConfig(world_size=WORLD, batch=BatchSpec(2, 8), base_lr=0.3)
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(MODEL, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train, CORPUS.valid, cfg,
        comm=comm,
    )


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="elastic-"))
    ckpt = workdir / "latest.npz"

    # Reference: the run that never crashes.
    reference = build_trainer()
    for _ in range(TOTAL_STEPS):
        reference.train_step()

    # The flaky run: rank 2 dies three collectives into step 46 (every
    # step issues the same number of collectives).
    per_step = len(reference.comm.ledger.events) // TOTAL_STEPS
    crash = FaultEvent(
        FaultKind.RANK_LOSS, collective_index=45 * per_step + 3, rank=2
    )
    flaky_comm = ChaosCommunicator(
        WORLD, plan=FaultPlan([crash]), track_memory=False
    )
    victim = build_trainer(comm=flaky_comm)
    step = 0
    print(f"training {TOTAL_STEPS} steps, checkpoint every "
          f"{CHECKPOINT_EVERY}; rank 2 will fail mid-step...")
    try:
        while step < TOTAL_STEPS:
            victim.train_step()
            step += 1
            if step % CHECKPOINT_EVERY == 0:
                save_checkpoint(ckpt, victim)
                print(f"  step {step:3d}: checkpoint written "
                      f"(val ppl {perplexity(victim.evaluate()):.2f})")
    except RankFailureError as exc:
        print(f"  step {step + 1:3d}: CRASH — {exc}")

    # Replacement job: new communicator ("new hardware"), restore, finish.
    revived = build_trainer()
    resumed_at = load_checkpoint(ckpt, revived)
    print(f"  restored checkpoint at step {resumed_at}; resuming...")
    for _ in range(TOTAL_STEPS - resumed_at):
        revived.train_step()

    worst = max(
        float(np.abs(a.data - b.data).max())
        for (_, a), (_, b) in zip(
            reference.model.named_parameters(),
            revived.model.named_parameters(),
        )
    )
    print(f"\nfinal val ppl: reference "
          f"{perplexity(reference.evaluate()):.3f}, recovered "
          f"{perplexity(revived.evaluate()):.3f}")
    print(f"max parameter delta vs the never-crashed run: {worst:.1e} "
          "(bit-identical recovery)")


if __name__ == "__main__":
    main()
