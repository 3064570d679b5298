"""Fused dense runs and packed allreduces change the schedule, never the bits.

The synchronizer reduces each maximal run of consecutive dense-only
parameters as one payload, and each unique exchange's value matrices as
another; blocking, it packs a step's payloads into as few allreduces as
the step's own largest scratch allows.  Every gradient it lands must
equal, bit for bit, the per-exchange reference: each dense parameter's
replica grads, and each value matrix, folded alone by
:func:`~repro.cluster.collectives.allreduce_arrays` (in the wire dtype
when a value codec rides the ring) and averaged — on a flat world, the
trivial and a hybrid mesh, the FP16 fused ring, a blocking FP16 ring,
both rank-execution paths and with gradient accumulation; and a trainer
fed those reference gradients must end on the same parameters.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import (
    Communicator,
    allreduce_arrays,
    parse_mesh_spec,
    ring_allreduce_time,
)
from repro.core import embedding_sync
from repro.core.embedding_sync import GradientSynchronizer, concat_token_grads
from repro.core.sparse_exchange import UniqueExchange
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.nn import Module, Parameter, SparseGrad
from repro.optim import SGD
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

WORLD = 16
STEPS = 3
VOCAB = 60
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 20000, seed=0)
# Per-rank batches: at SMALL each dense run outweighs every other
# collective of the step, so nothing packs; at PACKED the index gathers
# set the cap and a blocking flat step is one allreduce; at SPLIT the
# output embedding's gather is the cap and its value matrix goes alone.
SMALL = BatchSpec(2, 6)
PACKED = BatchSpec(4, 20)
SPLIT = BatchSpec(5, 10)
MODELS = {
    "word": lambda rng, rank: WordLanguageModel(
        WordLMConfig(
            vocab_size=VOCAB, embedding_dim=6, hidden_dim=8,
            projection_dim=6, num_samples=8,
        ),
        rng,
    ),
    "char": lambda rng, rank: CharLanguageModel(
        CharLMConfig(vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, depth=2),
        rng,
        dropout_rng=np.random.default_rng(rank),
    ),
}
DENSE = {
    "word": "lstm.w_x+lstm.w_h+lstm.bias+projection.weight+projection.bias",
    "char": "rhn.w_x+rhn.r+rhn.bias+loss_layer.weight+loss_layer.bias",
}
#: Allreduce payloads of one step: the dense run and each value matrix.
PAYLOADS = {"word": 3, "char": 2}
SWITCHES = {
    "flat": {},
    "trivial-mesh": {"mesh": "pipe=1,tensor=1,data=G"},
    "hybrid-mesh": {"mesh": "pipe=2,tensor=2,data=G/4"},
    "fp16-fused-ring": {"wire_codec": "fp16", "fused_reduce": True},
    "fp16-blocking": {"wire_codec": "fp16"},
    "per-rank": {"batched": False},
    "accumulation": {"accumulation_steps": 2},
    "accumulation-per-rank": {"accumulation_steps": 2, "batched": False},
}


def make_trainer(model, switches, batch=SMALL, comm=None):
    cfg = TrainConfig(world_size=WORLD, batch=batch, base_lr=0.2, **switches)
    return DistributedTrainer(
        MODELS[model],
        lambda params, lr: SGD(params, lr),
        CORPUS.train,
        CORPUS.valid,
        cfg,
        comm=comm,
    )


def bits(a):
    return a.dtype, a.shape, a.tobytes()


def fold(arrays, codec):
    """The rank-order sum of ``arrays``, in the wire dtype under ``codec``."""
    if codec is None:
        return allreduce_arrays(arrays)[0]
    wire_sum = allreduce_arrays(codec.encode_many(arrays))[0]
    return codec.decode(wire_sum, arrays[0].dtype)


def exchange_reference(grads, codec):
    """One unique exchange, unpacked: the ranks' locally reduced
    grads aligned to the global type set, folded alone and averaged."""
    local = [g.coalesce() for g in grads]
    index = np.unique(np.concatenate([g.indices for g in local]))
    matrices = np.zeros(
        (len(local), index.size, local[0].dim), local[0].values.dtype
    )
    for k, g in enumerate(local):
        matrices[k, np.searchsorted(index, g.indices)] = g.values
    return index, fold(list(matrices), codec) / len(grads)


def rank_rows(params):
    """One parameter's pre-sync ``(dense rows, token grads)`` over the
    ranks, read without taking them: the one model's rank rows, or each
    module's ordinary gradients as one row."""
    dense, tokens = [], []
    for p in params:
        stacks = [g for g in p.stacked_grads if isinstance(g, SparseGrad)]
        if stacks:  # each rank's tokens, joined in arrival order
            tokens += [
                SparseGrad(np.concatenate(ids), np.concatenate(vals))
                for ids, vals in zip(
                    zip(*(s.indices for s in stacks)),
                    zip(*(s.values for s in stacks)),
                )
            ]
        for rows in p.stacked_grads:
            if not isinstance(rows, SparseGrad):
                dense += list(rows)
        if p.grad is not None:
            dense.append(p.grad)
        if p.sparse_grads:
            tokens.append(concat_token_grads(p))
    return dense, tokens


def per_exchange_reference(sync, substitute):
    """Wrap ``sync.sync_replicas`` with the per-exchange reference check.

    Returns the list the wrapper appends each checked gradient's name to
    (``"{name}:values"`` for a sparse one).  With ``substitute`` the
    reference replaces the synced grad, so the trainer steps on
    per-exchange gradients throughout.
    """
    inner = sync.sync_replicas
    codec = None if sync.wire is None else sync.wire.value_codec
    checked = []

    def wrapped(replicas):
        named = [dict(r.named_parameters()) for r in replicas]
        params = named[0]
        dense, sparse = {}, {}
        for name in params:
            grads, tokens = rank_rows([d[name] for d in named])
            if grads:
                dense[name] = fold(grads, codec) / len(grads)
            if tokens:
                sparse[name] = exchange_reference(tokens, codec)
        inner(replicas)
        for name, ref in dense.items():
            assert bits(params[name].grad) == bits(ref), name
            checked.append(name)
        for name, (index, values) in sparse.items():
            (got,) = params[name].sparse_grads
            assert np.array_equal(got.indices, index), name
            assert bits(got.values) == bits(values), name
            checked.append(f"{name}:values")
        if substitute:
            for name, ref in dense.items():
                for d in named:
                    d[name].grad = ref
            for name, (index, values) in sparse.items():
                grad = SparseGrad(index, values).mark_coalesced()
                for d in named:
                    d[name].sparse_grads = [grad]

    sync.sync_replicas = wrapped
    return checked


def allreduce_tags(trainer):
    return [e.tag for e in trainer.comm.ledger.events if e.op == "allreduce"]


def unpacked(monkeypatch):
    """Issue every payload of a blocking step alone."""
    monkeypatch.setattr(
        embedding_sync, "_pack", lambda payloads: [[p] for p in payloads]
    )


def gathered(monkeypatch):
    """Keep every raw index gather of a blocking step (no table fold)."""
    monkeypatch.setattr(
        embedding_sync, "_fold", lambda payloads, gathers: (payloads, gathers)
    )


@pytest.mark.parametrize("switch", sorted(SWITCHES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_fused_runs_equal_the_per_tensor_reference(model, switch):
    fused = make_trainer(model, SWITCHES[switch], PACKED)
    reference = make_trainer(model, SWITCHES[switch], PACKED)
    checked = per_exchange_reference(fused.synchronizer, substitute=False)
    per_reference_checked = per_exchange_reference(
        reference.synchronizer, substitute=True
    )
    fused_losses = [fused.train_step() for _ in range(STEPS)]
    reference_losses = [reference.train_step() for _ in range(STEPS)]
    assert checked == per_reference_checked
    # Every dense parameter and every exchange, every step.
    assert len(checked) >= STEPS * 4
    assert sum(n.endswith(":values") for n in checked) >= STEPS
    # The fused ring carries each run alone, and the hybrid mesh's
    # quarter-vocabulary shards leave every dense shard the cap (the
    # mesh packs in the tied-parameter test below).
    if switch not in ("fp16-fused-ring", "hybrid-mesh"):
        assert any(":values+" in t for t in allreduce_tags(fused)), switch
    assert fused_losses == reference_losses
    for (name, p), (_, q) in zip(
        fused.model.named_parameters(),
        reference.model.named_parameters(),
    ):
        assert bits(p.data) == bits(q.data), name


class Tied(Module):
    """``p0`` dense, ``p1`` tied (a dense grad and a sparse exchange),
    ``p2`` dense — the grads of one replica."""

    def __init__(self, rank):
        super().__init__()
        rng = np.random.default_rng(rank)
        for i in range(3):
            p = Parameter(np.zeros((40, 1)))
            p.grad = rng.standard_normal((40, 1))
            setattr(self, f"p{i}", p)
        self.p1.sparse_grads = [
            SparseGrad(rng.integers(0, 40, 200), rng.standard_normal((200, 1)))
        ]


@pytest.mark.parametrize("mesh", [None, "pipe=2,tensor=2,data=4"])
def test_tied_parameter_brings_a_dense_member_and_a_value_matrix(
    mesh, monkeypatch
):
    """Blocking, the tied parameter's run of one and its value matrix
    ride one allreduce with the next run — on a hybrid mesh, one per
    data ring, each ring's members cut at its own offsets.  Every
    member lands the bits of its lone reduction, and the step's peak
    stays the unpacked one.  ``p1``'s table — 40 rows flat, a ring's
    10-row shard on the mesh — is cheaper than its gather, so it folds:
    the packed step sends no gather, and its peak is below the unpacked
    gather schedule's (on the mesh, its dense runs set the peak)."""
    replicas, world = 4, 4 if mesh is None else 16
    prefix = "" if mesh is None else "data:"
    landed = {}
    for packing in (True, False):
        if not packing:
            unpacked(monkeypatch)
            gathered(monkeypatch)
        comm = Communicator(
            world, mesh=None if mesh is None else parse_mesh_spec(mesh, world)
        )
        sync = GradientSynchronizer(comm, strategy=UniqueExchange())
        checked = per_exchange_reference(sync, substitute=False)
        models = [Tied(r) for r in range(replicas)]
        sync.sync_replicas(models)
        assert checked == ["p0", "p1", "p2", "p1:values"]
        landed[packing] = (
            [e.tag.removeprefix(prefix) for e in comm.ledger.events],
            comm.peak_bytes_per_rank,
            [bits(p.grad) for p in models[0].parameters()],
            bits(models[0].p1.sparse_grads[0].values),
        )
    tags, peak, dense, values = landed[True]
    assert tags == ["p0:dense", "p1:dense+p1:values+p2:dense"]
    assert landed[False][0] == [
        "p1:indices", "p0:dense", "p1:dense", "p1:values", "p2:dense",
    ]
    assert (dense, values) == landed[False][2:]
    if mesh is None:
        assert peak < landed[False][1]
    else:  # the dense runs' scratch, not the gather's, is the mesh's peak
        assert peak == landed[False][1]


@pytest.mark.parametrize(
    "model, batch, tags",
    [
        ("word", SMALL, ["embedding.weight:values", "{dense}:dense",
                         "loss_layer.weight:values"]),
        ("word", PACKED, ["embedding.weight:values+{dense}:dense"
                          "+loss_layer.weight:values"]),
        # The output embedding's gather is the cap: the pack closes
        # before its value matrix.
        ("word", SPLIT, ["embedding.weight:values+{dense}:dense",
                         "loss_layer.weight:values"]),
        ("char", SMALL, ["embedding.weight:values", "{dense}:dense"]),
        ("char", PACKED, ["embedding.weight:values+{dense}:dense"]),
    ],
    ids=["word-small", "word-packed", "word-split", "char-small",
         "char-packed"],
)
def test_allreduces_per_blocking_step(model, batch, tags, monkeypatch):
    """Packing sets the allreduce count, never the peak or the bytes.

    At PACKED every table is cheaper than its gather.  The word LM's
    step folds and sends no gather, so its peak falls below the lone
    schedule's; the char LM's table would push its one pack past the
    cap (a second allreduce for one gather), so that step keeps it.
    """
    packed = make_trainer(model, {}, batch, comm=Communicator(WORLD))
    for _ in range(STEPS):
        packed.train_step()
    unpacked(monkeypatch)
    gathered(monkeypatch)
    alone = make_trainer(model, {}, batch, comm=Communicator(WORLD))
    for _ in range(STEPS):
        alone.train_step()
    want = [t.format(dense=DENSE[model]) for t in tags] * STEPS
    assert allreduce_tags(packed) == want
    assert len(allreduce_tags(alone)) == STEPS * PAYLOADS[model]
    ops = {e.op for e in packed.comm.ledger.events}
    folds = (model, batch) == ("word", PACKED)
    assert ("allgather" not in ops) == folds
    if folds:
        assert packed.comm.peak_bytes_per_rank < alone.comm.peak_bytes_per_rank
    else:
        assert packed.comm.peak_bytes_per_rank == alone.comm.peak_bytes_per_rank
    ledger, base = packed.comm.ledger, alone.comm.ledger
    assert ledger.total_wire_bytes_per_rank <= base.total_wire_bytes_per_rank
    if len(want) < len(allreduce_tags(alone)):
        assert ledger.total_time_s < base.total_time_s


def test_sanitized_cli_run_packs_cleanly(capsys):
    """The Sanitizer checks a packed run member by member: at 160 GPUs
    the CLI's word LM packs each step's three allreduce payloads into
    two, so two steps make 8 collectives instead of 10."""
    rc = main(["train", "--gpus", "160", "--steps", "2",
               "--corpus-tokens", "60000", "--sanitize"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sanitizer: 8 collectives checked, 0 violations" in out


def test_one_record_per_run_on_every_axis_layout():
    """A dense run is one data-axis record, however many rings it spans."""
    for mesh, prefix in ((None, ""), ("pipe=2,tensor=2,data=G/4", "data:")):
        trainer = make_trainer("word", {} if mesh is None else {"mesh": mesh})
        trainer.train_step()
        dense = [
            e.tag for e in trainer.comm.ledger.events if e.tag.endswith(":dense")
        ]
        assert dense == [prefix + DENSE["word"] + ":dense"]


def test_dense_sim_time_is_one_ring_over_the_run_bytes():
    trainer = make_trainer("word", {})
    trainer.train_step()
    (run,) = [e for e in trainer.comm.ledger.events if e.tag.endswith(":dense")]
    members = run.tag[: -len(":dense")].split("+")
    params = dict(trainer.model.named_parameters())
    nbytes = sum(params[name].nbytes for name in members)
    assert run.time_s == ring_allreduce_time(WORLD, nbytes, trainer.comm.link)
