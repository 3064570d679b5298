"""One update is G identical updates: the materialised reference.

``DistributedTrainer`` binds every replica to one set of parameter
arrays and steps one optimizer.  The thing it stands for — G models,
each with its own arrays and its own optimizer, every one of them
stepping — no longer exists under ``src/``, so it is written out here
from public pieces only: ``model.step(batch, rng)`` per rank,
``GradientSynchronizer.sync_replicas``, then **every** optimizer steps.
The G materialised ranks must stay bit-equal among themselves, and the
trainer must match them in losses, parameters, optimizer state, RNG
streams and the ledger's logical bytes, on both rank-execution paths.

This is also where "equals an independent step" lives for SGD with and
without momentum/clipping and for Adam, now that neither optimizer has
a replication method of its own to test.

The second half pins what the sharing buys: host parameter memory that
does not grow with the world size.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cluster import Communicator
from repro.core.embedding_sync import GradientSynchronizer
from repro.core.seeding import assign_seeds
from repro.core.sparse_exchange import UniqueExchange
from repro.data import BatchSpec, ONE_BILLION_WORD, ShardedBatcher, make_corpus
from repro.optim import SGD, Adam, EpochDecaySchedule, StaticLossScaler
from repro.optim.loss_scaler import grads_are_finite
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

from ..helpers import assert_same_state

WORLD = 8
STEPS = 5
VOCAB = 60
WORD_CFG = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6,
    num_samples=8,
)
CHAR_CFG = CharLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, depth=2, dropout=0.2
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)


def word_model(rng, rank):
    return WordLanguageModel(WORD_CFG, rng, stateful=True)


def char_model(rng, rank):
    return CharLanguageModel(
        CHAR_CFG, rng, dropout_rng=np.random.default_rng(rank), stateful=True
    )


#: name -> (model factory, optimizer factory, base lr)
WORKLOADS = {
    "word-sgd": (word_model, lambda p, lr: SGD(p, lr), 0.2),
    "word-sgd-momentum-clip": (
        word_model,
        lambda p, lr: SGD(p, lr, momentum=0.9, clip_norm=0.05),
        0.2,
    ),
    "char-adam": (
        char_model, lambda p, lr: Adam(p, lr, weight_decay=0.01), 2e-3,
    ),
}
MODES = {
    "flat": {},
    "accumulate": {"accumulation_steps": 2},
    "loss-scale": {"loss_scale": 256.0},
    "mesh": {"mesh": "pipe=2,tensor=2,data=G/4"},
}


def config(workload, mode, **overrides):
    return TrainConfig(
        world_size=WORLD,
        batch=BatchSpec(2, 6),
        base_lr=WORKLOADS[workload][2],
        **MODES[mode],
        **overrides,
    )


class MaterialisedRanks:
    """G unshared models, G optimizers, and the step that drives them."""

    def __init__(self, workload, cfg):
        model, optimizer, _ = WORKLOADS[workload]
        self.cfg = cfg
        self.comm = Communicator(cfg.world_size, track_memory=False)
        self.comm.mesh = cfg.device_mesh
        ranks = cfg.device_mesh.axis_size("data")
        self.models = [
            model(np.random.default_rng(cfg.init_seed), rank)
            for rank in range(ranks)
        ]
        lr = EpochDecaySchedule.for_cluster(
            cfg.base_lr, cfg.num_nodes, decay=cfg.lr_decay
        ).initial_lr
        self.optimizers = [
            optimizer(list(m.parameters()), lr) for m in self.models
        ]
        self.batcher = ShardedBatcher(
            CORPUS.train, cfg.batch, ranks, shuffle_seed=cfg.shuffle_seed
        )
        self.seeds = assign_seeds(
            cfg.seed_strategy, ranks, base_seed=cfg.data_seed
        )
        self.sync = GradientSynchronizer(self.comm, strategy=UniqueExchange())
        self.scaler = (
            StaticLossScaler(cfg.loss_scale) if cfg.loss_scale else None
        )
        self.data_step = 0

    def step(self):
        scale = self.scaler.scale if self.scaler else 1.0
        losses = []
        for _ in range(self.cfg.accumulation_steps):
            rngs = self.seeds.rank_generators(step=self.data_step)
            window = self.data_step % self.batcher.steps_per_epoch
            for rank, model in enumerate(self.models):
                losses.append(
                    model.step(
                        self.batcher.batch(rank, window), rngs[rank],
                        loss_scale=scale,
                    )
                )
            self.data_step += 1
        with self.comm.ledger.scope("sync"):
            self.sync.sync_replicas(self.models)
        # The synced result is one object on every rank: whatever
        # rescales it does so once, through any one rank's parameters.
        synced = list(self.models[0].parameters())
        if self.cfg.accumulation_steps > 1:
            for p in synced:
                if p.grad is not None:
                    p.grad *= 1.0 / self.cfg.accumulation_steps
                for s in p.sparse_grads:
                    s.values *= 1.0 / self.cfg.accumulation_steps
        if self.scaler:
            self.scaler.unscale_grads(synced)
            assert grads_are_finite(synced)
        for optimizer in self.optimizers:
            optimizer.step()
        return float(np.mean(losses))


_references = {}


def reference(workload, mode):
    """The materialised run of one cell (memoized), checked against itself."""
    if (workload, mode) not in _references:
        ranks = MaterialisedRanks(workload, config(workload, mode))
        losses = [ranks.step() for _ in range(STEPS)]
        first, first_opt = ranks.models[0], ranks.optimizers[0]
        for model, optimizer in zip(ranks.models[1:], ranks.optimizers[1:]):
            for p, q in zip(
                model.parameters(), first.parameters(), strict=True
            ):
                assert p.data is not q.data  # really G parameter sets
            assert_same_state(
                model.state_dict(), first.state_dict(), "rank parameters"
            )
            assert_same_state(
                optimizer.state_dict(), first_opt.state_dict(), "rank optimizer"
            )
        _references[workload, mode] = (losses, ranks)
    return _references[workload, mode]


def logical_bytes(comm):
    return [
        (e.op, e.tag, e.scope, e.world, e.logical_bytes_per_rank)
        for e in comm.ledger.events
    ]


@pytest.mark.parametrize("batched", [None, False], ids=["stacked", "per-rank"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_trainer_equals_materialised_ranks(workload, mode, batched):
    model, optimizer, _ = WORKLOADS[workload]
    trainer = DistributedTrainer(
        model, optimizer, CORPUS.train, CORPUS.valid,
        config(workload, mode, batched=batched),
    )
    assert (trainer.batched_executor is not None) == (batched is None)
    losses = [trainer.train_step() for _ in range(STEPS)]
    want_losses, want = reference(workload, mode)

    assert losses == want_losses
    assert len(trainer.replicas) == len(want.models)
    for replica, model in zip(trainer.replicas, want.models):
        assert_same_state(replica.state_dict(), model.state_dict(), "parameters")
        assert replica.rng_state() == model.rng_state()
    assert_same_state(
        trainer.optimizer.state_dict(), want.optimizers[0].state_dict(),
        "optimizer",
    )
    assert logical_bytes(trainer.comm) == logical_bytes(want.comm)
    assert trainer.data_step == want.data_step
    if batched is None:
        assert trainer.batched_executor._calls == want.data_step


# ---------------------------------------------------------------------------
# the footprint guard
# ---------------------------------------------------------------------------

FOOTPRINT_CFG = WordLMConfig(
    vocab_size=3000, embedding_dim=16, hidden_dim=16, projection_dim=16,
    num_samples=16,
)


def traced_build(world, optimizer):
    """Traced bytes of one trainer: (a parameter set, what is live after
    two steps, the peak while it was being constructed)."""
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(FOOTPRINT_CFG, rng),
            optimizer, CORPUS.train, CORPUS.valid,
            TrainConfig(world_size=world, batch=BatchSpec(2, 6), base_lr=0.2),
        )
        built_peak = tracemalloc.get_traced_memory()[1] - baseline
        trainer.train_step()
        trainer.train_step()
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - baseline
        return trainer.replicas[0].parameter_bytes(), live, built_peak
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "optimizer",
    [lambda p, lr: SGD(p, lr), lambda p, lr: Adam(p, lr)],
    ids=["sgd", "adam"],
)
def test_host_parameter_memory_does_not_grow_with_the_world(optimizer):
    """G=8 against G=32.  An added rank costs its module objects, streams
    and gradient slots — under a tenth of a parameter set, where it used
    to cost a whole one (three with Adam's moments) — and construction
    holds replica 0 plus the replica being built, never G of them."""
    traced_build(2, optimizer)  # process-wide caches fill outside the count
    model_bytes, live_8, peak_8 = traced_build(8, optimizer)
    _, live_32, peak_32 = traced_build(32, optimizer)
    assert (live_32 - live_8) / 24 < 0.10 * model_bytes, (live_8, live_32)
    assert peak_32 - peak_8 < 0.5 * model_bytes, (peak_8, peak_32)
