"""Fused dense runs change the schedule, never the bits.

The synchronizer reduces each maximal run of consecutive dense-only
parameters as one collective.  Every dense gradient it lands must equal,
bit for bit, the per-tensor reference — each parameter's replica grads
folded alone by :func:`~repro.cluster.collectives.allreduce_arrays` (in
the wire dtype when a value codec rides the ring) and averaged — on a
flat world, the trivial and a hybrid mesh, the FP16 fused ring, both
rank-execution paths and with gradient accumulation; and a trainer fed
those reference gradients must end on the same parameters.
"""

import numpy as np
import pytest

from repro.cluster import allreduce_arrays, ring_allreduce_time
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
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
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)
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
SWITCHES = {
    "flat": {},
    "trivial-mesh": {"mesh": "pipe=1,tensor=1,data=G"},
    "hybrid-mesh": {"mesh": "pipe=2,tensor=2,data=G/4"},
    "fp16-fused-ring": {"wire_codec": "fp16", "fused_reduce": True},
    "per-rank": {"batched": False},
    "accumulation": {"accumulation_steps": 2},
    "accumulation-per-rank": {"accumulation_steps": 2, "batched": False},
}


def make_trainer(model, switches):
    cfg = TrainConfig(
        world_size=WORLD, batch=BatchSpec(2, 6), base_lr=0.2, **switches
    )
    return DistributedTrainer(
        MODELS[model],
        lambda params, lr: SGD(params, lr),
        CORPUS.train,
        CORPUS.valid,
        cfg,
    )


def bits(a):
    return a.dtype, a.shape, a.tobytes()


def per_tensor_reference(trainer, substitute):
    """Wrap the trainer's sync with the per-tensor reference check.

    Returns the list the wrapper appends each checked parameter's name
    to.  With ``substitute`` the reference replaces the synced grad, so
    the trainer steps on per-tensor gradients throughout.
    """
    sync = trainer.synchronizer.sync_replicas
    wire = trainer.synchronizer.wire
    codec = None if wire is None else wire.value_codec
    checked = []

    def wrapped(replicas):
        named = [dict(r.named_parameters()) for r in replicas]
        refs = {}
        for name in named[0]:
            params = [d[name] for d in named]
            if params[0].grad is None or any(p.sparse_grads for p in params):
                continue
            grads = [p.grad for p in params]
            if codec is None:
                total = allreduce_arrays(grads)[0]
            else:
                wire_sum = allreduce_arrays(codec.encode_many(grads))[0]
                total = codec.decode(wire_sum, grads[0].dtype)
            refs[name] = total / len(params)
        sync(replicas)
        for name, ref in refs.items():
            assert bits(named[0][name].grad) == bits(ref), name
            checked.append(name)
            if substitute:
                for d in named:
                    d[name].grad = ref

    trainer.synchronizer.sync_replicas = wrapped
    return checked


@pytest.mark.parametrize("switch", sorted(SWITCHES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_fused_runs_equal_the_per_tensor_reference(model, switch):
    fused = make_trainer(model, SWITCHES[switch])
    reference = make_trainer(model, SWITCHES[switch])
    checked = per_tensor_reference(fused, substitute=False)
    per_reference_checked = per_tensor_reference(reference, substitute=True)
    fused_losses = [fused.train_step() for _ in range(STEPS)]
    reference_losses = [reference.train_step() for _ in range(STEPS)]
    assert checked == per_reference_checked
    assert len(checked) >= STEPS * 3  # every dense parameter, every step
    assert fused_losses == reference_losses
    for (name, p), (_, q) in zip(
        fused.replicas[0].named_parameters(),
        reference.replicas[0].named_parameters(),
    ):
        assert bits(p.data) == bits(q.data), name


def test_one_record_per_run_on_every_axis_layout():
    """A dense run is one data-axis record, however many rings it spans."""
    for mesh, prefix in ((None, ""), ("pipe=2,tensor=2,data=G/4", "data:")):
        trainer = make_trainer("word", {} if mesh is None else {"mesh": mesh})
        trainer.train_step()
        dense = [
            e.tag for e in trainer.comm.ledger.events if e.tag.endswith(":dense")
        ]
        assert dense == [
            prefix + "lstm.w_x+lstm.w_h+lstm.bias+projection.weight"
            "+projection.bias:dense"
        ]


def test_dense_sim_time_is_one_ring_over_the_run_bytes():
    trainer = make_trainer("word", {})
    trainer.train_step()
    (run,) = [e for e in trainer.comm.ledger.events if e.tag.endswith(":dense")]
    members = run.tag[: -len(":dense")].split("+")
    params = dict(trainer.replicas[0].named_parameters())
    nbytes = sum(params[name].nbytes for name in members)
    assert run.time_s == ring_allreduce_time(WORLD, nbytes, trainer.comm.link)
