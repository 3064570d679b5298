"""One update is G identical updates, and costs one parameter set.

What ``DistributedTrainer``'s one model and one optimizer stand for — G
models with G optimizers — is written out in
:mod:`tests.conformance.reference`; the named cells below (every
optimizer, both stack widths) must match it.

The second half pins what the one model buys: host parameter memory and
``Parameter`` objects that do not grow with the world size, and a model
factory called once — or once per data rank for a model whose module
streams are per rank.
"""

import gc
import tracemalloc

import pytest

from repro.data import BatchSpec
from repro.nn import Parameter
from repro.optim import SGD, Adam
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

from ..conformance.cells import HYBRID, conform
from ..conformance.reference import CORPUS, MODELS

#: name -> the model and optimizer of the cell.
WORKLOADS = {
    "word-sgd": dict(model="word", optimizer="sgd"),
    "word-sgd-momentum": dict(model="word", optimizer="momentum"),
    "char-adam": dict(model="char", optimizer="adam"),
}
MODES = {
    "flat": {},
    "accumulate": {"accumulation_steps": 2},
    "loss-scale": {"loss_scale": 256.0},
    "mesh": {"mesh": HYBRID},
}


@pytest.mark.parametrize("batched", [True, False], ids=["stacked", "per-rank"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_trainer_equals_materialised_ranks(workload, mode, batched):
    conform(
        steps=5, batched=batched, compute_seconds_per_step=None,
        **WORKLOADS[workload], **MODES[mode],
    )


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
        return trainer.model.parameter_bytes(), live, built_peak
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "optimizer",
    [lambda p, lr: SGD(p, lr), lambda p, lr: Adam(p, lr)],
    ids=["sgd", "adam"],
)
def test_host_parameter_memory_does_not_grow_with_the_world(optimizer):
    """G=8 against G=32.  An added rank costs its rank state and its
    rows of the pre-sync gradients — under a tenth of a parameter set,
    where a replica used to cost a whole one (three with Adam's
    moments) — and construction holds the model plus at most the one
    rank build under way, never G of them."""
    traced_build(2, optimizer)  # process-wide caches fill outside the count
    model_bytes, live_8, peak_8 = traced_build(8, optimizer)
    _, live_32, peak_32 = traced_build(32, optimizer)
    assert (live_32 - live_8) / 24 < 0.10 * model_bytes, (live_8, live_32)
    assert peak_32 - peak_8 < 0.5 * model_bytes, (peak_8, peak_32)
    # The construction contract, on flat G = 1 and G = 4 and a hybrid
    # mesh of two data ranks: the word LM (no module streams) is built
    # once; the char LM once per data rank, for its dropout streams; the
    # host ``Parameter`` objects are one model's at every world size.
    for name, per_rank in (("word", False), ("char", True)):
        for world, mesh in ((1, None), (4, None), (8, "pipe=2,tensor=2,data=2")):
            builds, parameters, trainer = counted_build(name, world, mesh)
            ranks = trainer.data_parallel if per_rank else 1
            assert builds == list(range(ranks)), (name, world)
            assert parameters == len(list(trainer.model.parameters()))


def live_parameters() -> int:
    gc.collect()
    return sum(isinstance(o, Parameter) for o in gc.get_objects())


def counted_build(name, world, mesh):
    """``(ranks the factory built, Parameter objects the trainer keeps
    alive, trainer)``: a conformance model on ``world`` ranks."""
    builds = []

    def factory(rng, rank):
        builds.append(rank)
        return MODELS[name](rng, rank)

    before = live_parameters()
    trainer = DistributedTrainer(
        factory, lambda params, lr: SGD(params, lr), CORPUS.train,
        CORPUS.valid,
        TrainConfig(
            world_size=world, batch=BatchSpec(2, 6), base_lr=0.2, mesh=mesh
        ),
    )
    trainer.train_step()
    return builds, live_parameters() - before, trainer
