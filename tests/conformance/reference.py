"""The one written-out reference: G unshared models, G optimizers.

``DistributedTrainer`` holds one model and steps one optimizer for all
its data ranks.  What that stands for — G models, G optimizers, every
one stepping — is written out here from public pieces only: per rank,
``model.forward_backward`` on its own batch, stream and carried BPTT
state; a blocking codec-free ``sync_replicas`` on a flat world; then
every optimizer steps.  It follows ``use_unique``,
``seed_strategy``, ``accumulation_steps`` and ``loss_scale`` (skipped
overflow steps included, and the steps an FP16 wire overflowed on,
when told, as is the F that sets a dynamic scale's start); no
scheduling or transport switch exists here.  The model and optimizer
factories the trainers under test use live here too.
"""

import dataclasses

import numpy as np

from repro.cluster import Communicator
from repro.core.embedding_sync import GradientSynchronizer
from repro.core.seeding import assign_seeds
from repro.core.sparse_exchange import AllGatherExchange, UniqueExchange
from repro.data import BatchSpec, ONE_BILLION_WORD, ShardedBatcher, make_corpus
from repro.optim import SGD, Adam, DynamicLossScaler, EpochDecaySchedule
from repro.optim import StaticLossScaler
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

VOCAB = 60
BATCH = BatchSpec(2, 6)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)
WORD_CFG = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6,
    num_samples=8,
)
TIED_CFG = dataclasses.replace(WORD_CFG, tie_embeddings=True)
CHAR_CFG = CharLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, depth=2, dropout=0.2
)

#: A vocabulary small against the batch: at G = 8 the dense table is
#: cheaper than the index gather, so a flat step folds the gather away.
SMALL_CHAR_CFG = CharLMConfig(
    vocab_size=6, embedding_dim=2, hidden_dim=2, depth=1, dropout=0.2
)


def _char(cfg: CharLMConfig):
    return lambda rng, rank: CharLanguageModel(
        cfg, rng, dropout_rng=np.random.default_rng(rank), stateful=True
    )


#: name -> ``f(init_rng, rank)``: stateful models, so BPTT state carries.
MODELS = {
    "word": lambda rng, rank: WordLanguageModel(WORD_CFG, rng, stateful=True),
    "tied": lambda rng, rank: WordLanguageModel(TIED_CFG, rng, stateful=True),
    "char": _char(CHAR_CFG),
    "smallchar": _char(SMALL_CHAR_CFG),
}
#: name -> the corpus its model trains on.
CORPORA = dict.fromkeys(MODELS, CORPUS) | {
    "smallchar": make_corpus(
        ONE_BILLION_WORD.scaled(SMALL_CHAR_CFG.vocab_size), 6000, seed=0
    ),
}
#: name -> (``f(params, lr)``, base lr).
OPTIMIZERS = {
    "sgd": (lambda p, lr: SGD(p, lr), 0.2),
    "momentum": (lambda p, lr: SGD(p, lr, momentum=0.9), 0.2),
    "adam": (lambda p, lr: Adam(p, lr, weight_decay=0.01), 2e-3),
}


def word_trainer(world=4, comm=None, **overrides) -> DistributedTrainer:
    """The stateless word LM on plain SGD, the trainer most tests share."""
    cfg = TrainConfig(world_size=world, batch=BATCH, base_lr=0.2, **overrides)
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train, CORPUS.valid, cfg, comm=comm,
    )


def carried(state) -> tuple:
    """A carried BPTT state as a tuple of arrays (``()``: none)."""
    if state is None:
        return ()
    return state if isinstance(state, tuple) else (state,)


def rank_carry(executor, rank: int) -> tuple:
    """Row ``rank`` of an executor's stacked carried state (``()``: none)."""
    return tuple(a[rank] for a in carried(executor.carry))


def initial_dynamic_scale(wire_scale: float | None) -> float:
    """A dynamic loss scale's start: 1024, or on an FP16 wire of factor
    F the largest power of two not above ``1024 / F``, at least 1."""
    if wire_scale is None:
        return 1024.0
    scale = 1.0
    while 2 * scale * wire_scale <= 1024.0:
        scale *= 2
    return scale


class MaterialisedRanks:
    """G unshared models, G optimizers, and the step that drives them.

    ``cfg`` is flat: its ``world_size`` is the rank count.
    ``wire_scale`` is the F of the FP16 wire the run under test syncs
    on, if any.
    """

    def __init__(
        self, model: str, optimizer: str, cfg: TrainConfig,
        wire_scale: float | None = None,
    ):
        if cfg.mesh is not None:
            raise ValueError("the reference runs on a flat world")
        self.cfg = cfg
        ranks = cfg.world_size
        self.comm = Communicator(ranks, track_memory=False)
        self.models = [
            MODELS[model](np.random.default_rng(cfg.init_seed), rank)
            for rank in range(ranks)
        ]
        lr = EpochDecaySchedule.for_cluster(cfg.base_lr, cfg.num_nodes).initial_lr
        self.optimizers = [
            OPTIMIZERS[optimizer][0](list(m.parameters()), lr)
            for m in self.models
        ]
        #: Each rank's carried BPTT state (None: start fresh).
        self.carry = [None] * ranks
        self.batcher = ShardedBatcher(
            CORPORA[model].train, cfg.batch, ranks, shuffle_seed=cfg.shuffle_seed
        )
        self.seeds = assign_seeds(cfg.seed_strategy, ranks, base_seed=cfg.data_seed)
        exchange = UniqueExchange() if cfg.use_unique else AllGatherExchange()
        self.sync = GradientSynchronizer(self.comm, strategy=exchange)
        self.scaler = (
            None if cfg.loss_scale is None
            else DynamicLossScaler(initial_dynamic_scale(wire_scale))
            if cfg.loss_scale == "dynamic"
            else StaticLossScaler(float(cfg.loss_scale))
        )
        self.data_step = 0

    def step(self, wire_overflow: bool = False) -> float:
        """One step; ``wire_overflow`` skips it as an overflow would."""
        scale = self.scaler.scale if self.scaler else 1.0
        losses = []
        for _ in range(self.cfg.accumulation_steps):
            rngs = self.seeds.rank_generators(step=self.data_step)
            window = self.data_step % self.batcher.steps_per_epoch
            for rank, model in enumerate(self.models):
                batch = self.batcher.batch(rank, window)
                state = self.carry[rank]
                if state is not None and carried(state)[0].shape[0] != len(
                    batch.inputs
                ):
                    state = None  # a batch-size change drops the carry
                # The char LM draws its dropout masks from its own
                # stream; the word LM's sampler is the rank's generator.
                rng = rngs[rank] if model.step_rng is None else model.step_rng
                loss, final = model.forward_backward(
                    batch.inputs, batch.targets, state, rng, scale
                )
                losses.append(loss)
                if model.stateful:
                    # Truncated BPTT: carry values forward, cut the gradient.
                    self.carry[rank] = final
            self.data_step += 1
        with self.comm.timeline.scope("sync"):
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
        overflow = False
        if self.scaler:
            self.scaler.unscale_grads(synced)
            overflow = wire_overflow or not grads_are_finite(synced)
            self.scaler.update(overflow)
        for model, optimizer in zip(self.models, self.optimizers):
            if overflow:
                model.zero_grad()
            else:
                optimizer.step()
        return float(np.mean(losses))


_runs = {}


def reference_run(
    model: str, optimizer: str, cfg: TrainConfig, steps: int,
    wire_overflows: frozenset = frozenset(),
    wire_scale: float | None = None,
):
    """``(losses, ranks)`` of ``steps`` reference steps (memoized), the G
    materialised ranks checked bit-equal among themselves.

    ``wire_overflows`` are the steps (from 0) an FP16 wire overflowed
    on: the loss scaler skips them and backs off.  ``wire_scale`` is
    that wire's F (see :class:`MaterialisedRanks`).
    """
    if wire_overflows and cfg.loss_scale != "dynamic":
        raise ValueError("only a dynamic loss scale backs off an overflow")
    key = (model, optimizer, cfg, steps, wire_overflows, wire_scale)
    if key not in _runs:
        ranks = MaterialisedRanks(model, optimizer, cfg, wire_scale)
        losses = [ranks.step(s in wire_overflows) for s in range(steps)]
        first, first_opt = ranks.models[0], ranks.optimizers[0]
        for other, opt in zip(ranks.models[1:], ranks.optimizers[1:]):
            for p, q in zip(other.parameters(), first.parameters(), strict=True):
                assert p.data is not q.data  # really G parameter sets
            assert_same_state(other.state_dict(), first.state_dict(), "rank")
            assert_same_state(opt.state_dict(), first_opt.state_dict(), "opt")
        _runs[key] = (losses, ranks)
    return _runs[key]
