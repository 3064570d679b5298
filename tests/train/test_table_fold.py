"""A table cheaper than its gather skips it.

When an embedding's whole ``V x (D + 1)`` table costs no more on the
wire than its raw index gather (:func:`~repro.core.unique.dense_table_wins`),
the blocking synchronizer sends the table through the step's reduce
stage instead: each rank's locally reduced rows beside a presence
column, Î read off the reduced presence column.  The schedule changes,
never the bits — these tests hold the folded trainer to a sync loop
written out here that runs ``unique_exchange`` (always the gather path)
per sparse parameter, and the folded exchange to ``unique_exchange`` on
random gradients with signed zeros, cancelling rows and duplicate ids.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import Communicator, allreduce_arrays, hybrid_mesh
from repro.core import unique
from repro.core.embedding_sync import GradientSynchronizer
from repro.core.mesh_exchange import shard_sparse
from repro.core.sparse_exchange import UniqueExchange
from repro.core.unique import iunique_exchange, unique_exchange
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.nn import Module, Parameter, SparseGrad
from repro.nn.batched import rank_grads
from repro.optim import SGD, Adam
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

from ..helpers import assert_same_state

VOCAB = 30
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 8000, seed=0)
STEPS = 5
#: 30 x 5 float64 words per rank against 16 tokens' ids: at G = 32 the
#: table's allreduce moves 2,325 B per rank, the gather 3,968.
CHAR = CharLMConfig(vocab_size=VOCAB, embedding_dim=4, hidden_dim=6, depth=1)
TIED = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=4, hidden_dim=6, projection_dim=4,
    num_samples=6, tie_embeddings=True,
)
MODELS = {
    "char": lambda rng, rank: CharLanguageModel(CHAR, rng),
    "tied": lambda rng, rank: WordLanguageModel(TIED, rng),
}


def make_trainer(model="char", world=32, batch=BatchSpec(2, 8), **cfg):
    config = TrainConfig(world_size=world, batch=batch, base_lr=4e-3, **cfg)
    return DistributedTrainer(
        MODELS[model],
        lambda params, lr: Adam(params, lr),
        CORPUS.train, CORPUS.valid, config,
    )


def gather_path(monkeypatch):
    """No table ever wins: every exchange keeps its gather."""
    monkeypatch.setattr(unique, "dense_table_wins", lambda *args: False)


def written_out_sync(comm):
    """Each dense grad folded alone, each sparse parameter through
    ``unique_exchange``, both averaged — one object per parameter."""

    def sync(replicas):
        (model,) = replicas  # the trainer's one model, holding rank rows
        for name, p in model.named_parameters():
            block, tokens = rank_grads(p)
            if block is not None:
                p.grad = allreduce_arrays(list(block))[0] / len(block)
            if tokens is not None:
                with comm.timeline.scope(name):
                    result = unique_exchange(comm, tokens, tag=name)
                p.sparse_grads = [
                    SparseGrad(
                        result.global_indices,
                        result.reduced_values / len(tokens),
                    ).mark_coalesced()
                ]

    return sync


def events(trainer):
    return [
        (e.op, e.tag, e.scope, e.wire_bytes_per_rank, e.time_s)
        for e in trainer.comm.ledger.events
    ]


def test_a_folded_char_step_is_one_allreduce():
    trainer = make_trainer()
    for _ in range(STEPS):
        trainer.train_step()
    ops = [e.op for e in trainer.comm.ledger.events]
    assert ops == ["allreduce"] * STEPS
    assert all(
        e.tag.startswith("embedding.weight:values+")
        for e in trainer.comm.ledger.events
    )


@pytest.mark.parametrize(
    "model, cfg",
    [("char", {}), ("char", {"accumulation_steps": 2}), ("tied", {})],
    ids=["char", "char-accumulation", "tied-word"],
)
def test_folded_trainer_equals_the_written_out_unique_exchange(model, cfg):
    folded = make_trainer(model, **cfg)
    reference = make_trainer(model, **cfg)
    reference.synchronizer.sync_replicas = written_out_sync(reference.comm)
    got = [folded.train_step() for _ in range(STEPS)]
    want = [reference.train_step() for _ in range(STEPS)]
    # The fold fired on every step, and the reference gathered.
    assert "allgather" not in {e.op for e in folded.comm.ledger.events}
    assert "allgather" in {e.op for e in reference.comm.ledger.events}
    assert got == want
    for (name, p), (_, q) in zip(
        folded.model.named_parameters(),
        reference.model.named_parameters(),
    ):
        assert p.data.tobytes() == q.data.tobytes(), name
    assert_same_state(
        folded.optimizer.state_dict(), reference.optimizer.state_dict(),
        "adam",
    )


#: Addends whose rank-order sums hit ``-0.0 + -0.0``, ``x + (-x)`` and
#: ``-0.0 + (+0)``.
ADDENDS = np.array([-0.0, 0.0, 1.0, -1.0, 0.25, -0.25])


@given(
    layout=st.sampled_from(["flat", "mesh"]),
    rows=st.integers(1, 6),
    dim=st.integers(1, 2),
    dtype=st.sampled_from([np.float32, np.float64]),
    tokens=st.lists(st.integers(0, 12), min_size=8, max_size=8),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60)
def test_folded_exchange_returns_unique_exchanges_bits(
    layout, rows, dim, dtype, tokens, seed
):
    rng = np.random.default_rng(seed)
    grads = [
        SparseGrad(
            rng.integers(0, rows, k),  # duplicate ids within a rank
            rng.choice(ADDENDS, (k, dim)).astype(dtype),
        )
        for k in tokens
    ]

    def comm():
        if layout == "flat":
            return Communicator(8)
        return Communicator(
            8, mesh=hybrid_mesh("pipe=2,tensor=1,data=4", 8)
        ).axis("data")

    if layout == "mesh":
        # Four data ranks' token rows, cut to each ring's row range as
        # the synchronizer cuts them (duplicates kept).
        grads = shard_sparse(
            grads[:4], comm().groups, rows, coalesce=False
        )
    pending = iunique_exchange(comm(), grads, num_rows=rows)
    gather = pending.gather
    assume(gather.table_wins)
    gather.folded = True
    got = pending.wait()
    want = iunique_exchange(comm(), grads).wait()
    for a, b in zip(got, want):
        assert a.global_indices.dtype == b.global_indices.dtype
        assert a.global_indices.tobytes() == b.global_indices.tobytes()
        assert a.reduced_values.dtype == b.reduced_values.dtype
        assert a.reduced_values.shape == b.reduced_values.shape
        assert a.reduced_values.tobytes() == b.reduced_values.tobytes()
        assert a.local_unique_counts == b.local_unique_counts


class Embedded(Module):
    """One data rank's 40 x 1 embedding and 200 token-level grads."""

    def __init__(self, rank):
        super().__init__()
        rng = np.random.default_rng(rank)
        self.emb = Parameter(np.zeros((40, 1)))
        self.emb.sparse_grads = [
            SparseGrad(rng.integers(0, 40, 200), rng.standard_normal((200, 1)))
        ]


def test_a_mesh_ring_sizes_its_table_at_its_shard(monkeypatch):
    """On ``pipe=2,tensor=2,data=4`` each data ring holds 10 of the 40
    rows: its 10-row table wins where the whole 40-row one loses to the
    ring's index gather, so the step folds — one collective fewer than
    the gather schedule — and lands the gather schedule's bits."""
    mesh = "pipe=2,tensor=2,data=4"

    def synced():
        comm = Communicator(16, mesh=hybrid_mesh(mesh, 16))
        models = [Embedded(r) for r in range(4)]
        GradientSynchronizer(comm, UniqueExchange()).sync_replicas(models)
        (grad,) = models[0].emb.sparse_grads
        return comm, grad

    data = Communicator(16, mesh=hybrid_mesh(mesh, 16)).axis("data")
    vectors = shard_sparse(
        [m.emb.sparse_grads[0] for m in map(Embedded, range(4))],
        data.groups, 40,
    )

    def wins(rows):
        return all(
            unique.dense_table_wins(
                4, rows, 1, 8, [vectors[r].indices.nbytes for r in ranks]
            )
            for ranks in data.groups
        )

    assert wins(10) and not wins(40)
    comm, folded = synced()
    gather_path(monkeypatch)
    gathered_comm, gathered = synced()
    assert [e.op for e in comm.ledger.events] == ["allreduce"]
    assert [e.op for e in gathered_comm.ledger.events] == [
        "allgather", "allreduce",
    ]
    assert folded.indices.tobytes() == gathered.indices.tobytes()
    assert folded.values.dtype == gathered.values.dtype
    assert folded.values.tobytes() == gathered.values.tobytes()


def test_word_flat_shape_keeps_its_gather(monkeypatch):
    """V = 2000, D = 32 at G = 64: the table (about 1 MB per rank on
    the wire) loses to the 145 KB gathers, so the ledger is the gather
    schedule's, event for event."""
    cfg = WordLMConfig(
        vocab_size=2000, embedding_dim=32, hidden_dim=64, projection_dim=32,
        num_samples=128,
    )
    corpus = make_corpus(ONE_BILLION_WORD.scaled(2000), 30000, seed=0)

    def run():
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(cfg, rng),
            lambda params, lr: SGD(params, lr),
            corpus.train, corpus.valid,
            TrainConfig(world_size=64, batch=BatchSpec(4, 20), base_lr=0.3),
        )
        trainer.train_step()
        return trainer

    today = run()
    assert "allgather" in {e.op for e in today.comm.ledger.events}
    gather_path(monkeypatch)
    assert events(today) == events(run())


@pytest.mark.parametrize(
    "cfg",
    [
        {"wire_codec": "fp16"},
        {"use_unique": False},
        {"wire_codec": "delta"},
    ],
    ids=["fp16", "baseline", "index-codec"],
)
def test_out_of_scope_schedules_keep_their_ledger(cfg, monkeypatch):
    """At a shape where the plain schedule folds, these keep the ledger
    of a tree in which no table wins, event for event."""
    assert "allgather" not in {op for op, *_ in events(_stepped())}
    got = events(_stepped(**cfg))
    gather_path(monkeypatch)
    assert got == events(_stepped(**cfg))


def _stepped(**cfg):
    trainer = make_trainer(**cfg)
    for _ in range(2):
        trainer.train_step()
    return trainer


def test_a_sliced_char_step_folds_and_hides_its_dense_ring():
    """Sliced backward decides the fold before the first slice, as the
    unsliced step does: the table rides one allreduce, the fused dense
    ring goes at its slice, hidden behind the embedding's, and the step
    moves the same bytes in less time."""
    cfg = dict(fused_reduce=True, compute_seconds_per_step=1e-3)
    blocking = _stepped(**cfg)
    sliced = _stepped(overlap=True, **cfg)
    ops = [e.op for e in sliced.comm.ledger.events]
    assert "allgather" not in ops
    assert ops.count("allreduce") == 2  # the table, once a step
    assert sliced.comm.timeline.makespan < blocking.comm.timeline.makespan
    assert (
        sliced.comm.ledger.total_wire_bytes_per_rank
        == blocking.comm.ledger.total_wire_bytes_per_rank
    )


def test_folded_peak_and_cost_stay_under_the_gather_schedule(monkeypatch):
    folded = _stepped()
    gather_path(monkeypatch)
    gathered = _stepped()
    assert folded.comm.peak_bytes_per_rank <= gathered.comm.peak_bytes_per_rank
    new, old = folded.comm.ledger, gathered.comm.ledger
    assert new.total_wire_bytes_per_rank <= old.total_wire_bytes_per_rank
    assert new.total_time_s < old.total_time_s
    assert len(new.events) < len(old.events)
