"""One composition table for the gradient-sync switches.

Every scheduling/transport switch — mesh, wire codec, overlap, fused
reduce, sanitizer and the batched executor (both models qualify, so
every cell below stacks its replicas while its reference runs the
per-rank loop) — changes cost and never bits.  Rather than pin the
switches pairwise, this table draws an **all-pairs** cover of

    mesh ∈ {None, "data=G", "pipe=2,tensor=2,data=G/4"}
  × wire_codec ∈ {None, "delta", "fp16", "fp16+entropy"}
  × overlap × fused_reduce × observer ∈ {plain, sanitize}
  × model ∈ {word, char}

(plus the everything-at-once cell) and checks each cell against a single
reference: the per-rank, blocking, codec-free, observer-free **flat**
run over the cell's ``d`` data-parallel replicas.

* lossless cells: losses, parameters and per-module RNG state bit-equal;
* fp16 cells: losses within rtol 1e-4, RNG state equal, replicas
  bit-synchronized among themselves;
* ``"data=G"`` cells are additionally run with ``mesh=None`` and must
  agree in the full ledger event list and the Timeline makespan — flat
  training *is* the trivial mesh.

Gradient accumulation (2 micro-steps) is on everywhere, so post-sync
gradients are scaled in place in every cell.
"""

import itertools

import numpy as np
import pytest

from repro.analysis import Sanitizer
from repro.cluster import Communicator
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD, Adam
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    assert_replicas_synchronized,
)

WORLD = 8
STEPS = 3
HYBRID = "pipe=2,tensor=2,data=G/4"
FACTORS = {
    "mesh": (None, "data=G", HYBRID),
    "wire_codec": (None, "delta", "fp16", "fp16+entropy"),
    "overlap": (False, True),
    "fused_reduce": (False, True),
    "observer": ("plain", "sanitize"),
    "model": ("word", "char"),
}
EVERYTHING = (HYBRID, "fp16+entropy", True, True, "sanitize", "word")

VOCAB = 60
WORD_CFG = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6,
    num_samples=8,
)
CHAR_CFG = CharLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, depth=2, dropout=0.2
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)


def all_pairs(factors):
    """A greedy all-pairs cover of the factor product (deterministic)."""
    names = list(factors)
    cells = list(itertools.product(*factors.values()))

    def pairs(cell):
        return {
            (i, cell[i], j, cell[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        }

    uncovered = set().union(*(pairs(c) for c in cells))
    cover = []
    while uncovered:
        best = max(cells, key=lambda c: len(pairs(c) & uncovered))
        cover.append(best)
        uncovered -= pairs(best)
    return cover


CELLS = all_pairs(FACTORS)
if EVERYTHING not in CELLS:
    CELLS.append(EVERYTHING)


def build(model, world, observer="plain", **overrides):
    """A trainer plus the end-of-run check of its observer."""
    comm = Communicator(world, track_memory=False)
    finish = lambda: None
    if observer == "sanitize":
        finish = Sanitizer(comm).finish
    cfg = TrainConfig(
        world_size=world,
        batch=BatchSpec(2, 6),
        base_lr=0.2 if model == "word" else 2e-3,
        accumulation_steps=2,
        compute_seconds_per_step=1e-3,
        **overrides,
    )
    if model == "word":
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
            lambda params, lr: SGD(params, lr),
            CORPUS.train, CORPUS.valid, cfg, comm=comm,
        )
    else:
        trainer = DistributedTrainer(
            lambda rng, rank: CharLanguageModel(
                CHAR_CFG, rng, dropout_rng=np.random.default_rng(rank)
            ),
            lambda params, lr: Adam(params, lr),
            CORPUS.train, CORPUS.valid, cfg, comm=comm,
        )
    return trainer, finish


def run(trainer, finish=lambda: None):
    losses = [trainer.train_step() for _ in range(STEPS)]
    finish()
    return losses


_references = {}


def reference(model, replicas):
    """The flat reference over ``replicas`` data-parallel ranks (memoized)."""
    key = (model, replicas)
    if key not in _references:
        # gpus_per_node keeps the node count (hence the LR rule) equal
        # to the 8-GPU, one-node world of every measured cell.
        trainer, _ = build(
            model, replicas, gpus_per_node=replicas, batched=False
        )
        _references[key] = (run(trainer), trainer)
    return _references[key]


def cell_id(cell):
    mesh, codec, overlap, fused, observer, model = cell
    return "-".join([
        {None: "flat", "data=G": "trivial", HYBRID: "hybrid"}[mesh],
        codec or "raw",
        "overlap" if overlap else "blocking",
        "fused" if fused else "unfused",
        observer,
        model,
    ])


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_matches_flat_reference(cell):
    mesh, codec, overlap, fused, observer, model = cell
    switches = dict(
        mesh=mesh, wire_codec=codec, overlap=overlap, fused_reduce=fused
    )
    trainer, finish = build(model, WORLD, observer, **switches)
    if observer == "sanitize" and codec is not None:
        # No config knob: the sanitizer on the funnel is what makes the
        # policy's codecs the checking variants.
        codecs = [trainer.wire.value_codec, trainer.wire.index_codec]
        names = [type(c).__name__ for c in codecs if c is not None]
        assert names and all(n.startswith("Sanitized") for n in names)
    losses = run(trainer, finish)
    want_losses, want = reference(model, trainer.data_parallel)

    assert_replicas_synchronized(trainer.replicas, atol=0.0)
    for got_replica, want_replica in zip(trainer.replicas, want.replicas):
        assert got_replica.rng_state() == want_replica.rng_state()
    if codec is not None and "fp16" in codec:
        np.testing.assert_allclose(losses, want_losses, rtol=1e-4)
    else:
        assert losses == want_losses
        want_params = dict(want.replicas[0].named_parameters())
        for name, p in trainer.replicas[0].named_parameters():
            np.testing.assert_array_equal(
                p.data, want_params[name].data, err_msg=name
            )

    if mesh == "data=G":
        flat, flat_finish = build(
            model, WORLD, observer, **dict(switches, mesh=None)
        )
        assert run(flat, flat_finish) == losses
        assert flat.comm.ledger.events == trainer.comm.ledger.events
        assert flat.comm.timeline.makespan == trainer.comm.timeline.makespan


@pytest.mark.parametrize(
    "mesh", FACTORS["mesh"], ids=["flat", "trivial", "hybrid"]
)
@pytest.mark.parametrize("overlap", FACTORS["overlap"], ids=["blocking", "overlap"])
def test_batched_word_lm_cell(mesh, overlap):
    """``batched=True`` is required, not hoped for: the word LM stacks on a
    flat world and on every mesh, and no micro-step falls back."""
    trainer, finish = build(
        "word", WORLD, mesh=mesh, overlap=overlap, batched=True
    )
    losses = run(trainer, finish)
    executor = trainer.batched_executor
    assert len(executor.replicas) == trainer.data_parallel
    assert executor._calls == STEPS * trainer.config.accumulation_steps
    want_losses, want = reference("word", trainer.data_parallel)
    assert losses == want_losses
    assert_replicas_synchronized(trainer.replicas, atol=0.0)
    want_params = dict(want.replicas[0].named_parameters())
    for name, p in trainer.replicas[0].named_parameters():
        np.testing.assert_array_equal(p.data, want_params[name].data, err_msg=name)


def test_table_covers_every_pair_of_switch_values():
    names = list(FACTORS)
    for i, j in itertools.combinations(range(len(names)), 2):
        seen = {(c[i], c[j]) for c in CELLS}
        want = set(itertools.product(FACTORS[names[i]], FACTORS[names[j]]))
        assert want <= seen, (names[i], names[j], want - seen)
    assert EVERYTHING in CELLS
