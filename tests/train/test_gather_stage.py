"""One gather stage per blocking step: the index gathers ride one allgather.

Blocking, the synchronizer issues every unique exchange's raw index
gather as one allgather — each rank's members concatenated, member
``m``'s ids offset by the row counts before it — then cuts one
``global_unique`` of the gathered vector back into each member's Î.
That changes the schedule, never the bits: the packed gather moves no
more bytes than the lone gathers together, pays one ring's latency,
hands each member its lone Î, and never raises the step's peak.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.cluster import (
    CollectiveHook,
    Communicator,
    parse_mesh_spec,
    ring_allgather_time,
)
from repro.core import embedding_sync
from repro.core.sparse_exchange import UniqueExchange
from repro.core.unique import IndexGather, iunique_exchange
from repro.data import BatchSpec
from repro.optim import SGD
from repro.train import DistributedTrainer, TrainConfig, WordLanguageModel
from repro.train import WordLMConfig

from ..conformance.reference import CORPUS, TIED_CFG, WORD_CFG

WORLD = 8
STEPS = 3
LAYOUTS = {"flat": None, "mesh": "pipe=1,tensor=2,data=4"}
PACKED_TAG = "embedding.weight:indices+loss_layer.weight:indices"
LONE_TAGS = ["embedding.weight:indices", "loss_layer.weight:indices"]
#: Dense runs far smaller than one index gather: nothing caps a pack.
TINY_CFG = WordLMConfig(
    vocab_size=60, embedding_dim=2, hidden_dim=2, projection_dim=2,
    num_samples=8,
)


def make_trainer(
    layout=None, model_cfg=WORD_CFG, batch=BatchSpec(2, 6), **cfg
):
    mesh = LAYOUTS[layout] if layout else None
    comm = Communicator(
        WORLD, mesh=None if mesh is None else parse_mesh_spec(mesh, WORLD)
    )
    config = TrainConfig(
        world_size=WORLD, batch=batch, base_lr=0.2, mesh=mesh, **cfg
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(model_cfg, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train, CORPUS.valid, config, comm=comm,
    )


def lone_gathers(monkeypatch):
    """Issue every index gather of a blocking step alone."""
    monkeypatch.setattr(
        embedding_sync, "_pack_gathers",
        lambda gathers, cap: [[g] for g in gathers],
    )


def ledger(trainer):
    return [
        (e.op, e.tag, e.scope, e.wire_bytes_per_rank, e.time_s)
        for e in trainer.comm.ledger.events
    ]


def gathers(trainer):
    """The step's allgather tags (axis prefix dropped) and records."""
    events = [e for e in trainer.comm.ledger.events if e.op == "allgather"]
    prefix = "data:" if trainer.config.mesh else ""
    return [e.tag.removeprefix(prefix) for e in events], events


class GatherSizes(CollectiveHook):
    """Each allgather's largest per-rank contribution, in bytes."""

    def __init__(self):
        self.nbytes = []

    def pre_issue(self, comm, op, tag, arrays):
        if op == "allgather":
            self.nbytes.append(max(a.nbytes for a in arrays))


def run(trainer, steps=STEPS):
    return [trainer.train_step() for _ in range(steps)]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_one_allgather_per_step_cheaper_than_the_lone_two(layout, monkeypatch):
    packed = make_trainer(layout)
    sizes = GatherSizes()
    packed.comm.hooks.append(sizes)
    packed_losses = run(packed)
    lone_gathers(monkeypatch)
    lone = make_trainer(layout)
    lone_losses = run(lone)

    tags, events = gathers(packed)
    assert tags == [PACKED_TAG] * STEPS
    lone_tags, lone_events = gathers(lone)
    assert lone_tags == LONE_TAGS * STEPS
    data = packed.comm.axis("data")
    for step, event in enumerate(events):
        alone = lone_events[2 * step : 2 * step + 2]
        assert event.wire_bytes_per_rank <= sum(
            e.wire_bytes_per_rank for e in alone
        )
        assert event.time_s == ring_allgather_time(
            data.ring_size, sizes.nbytes[step], data.link
        )
        assert event.time_s < sum(e.time_s for e in alone)
        assert event.scope == "sync/embedding.weight+loss_layer.weight"
    # The allreduce stage, the bits and the peak are the lone schedule's.
    assert [e for e in ledger(packed) if e[0] == "allreduce"] == [
        e for e in ledger(lone) if e[0] == "allreduce"
    ]
    assert packed_losses == lone_losses
    for (name, p), (_, q) in zip(
        packed.replicas[0].named_parameters(),
        lone.replicas[0].named_parameters(),
    ):
        assert np.array_equal(p.data, q.data), name
    assert packed.comm.peak_bytes_per_rank == lone.comm.peak_bytes_per_rank
    assert packed.comm.ledger.total_time_s < lone.comm.ledger.total_time_s


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_each_member_gets_its_lone_exchange_type_set(layout, monkeypatch):
    """The cut of the packed gather's one ``global_unique`` is, per
    member and per ring, the Î its lone ``unique_exchange`` derives."""
    handed = []
    iexchange = UniqueExchange.iexchange

    def recording(self, comm, grads, tag="embedding", num_rows=None):
        pending = iexchange(self, comm, grads, tag=tag, num_rows=num_rows)
        handed.append((comm, grads, tag, pending.gather))
        return pending

    monkeypatch.setattr(UniqueExchange, "iexchange", recording)
    trainer = make_trainer(layout)
    trainer.train_step()
    assert [tag for _, _, tag, _ in handed] == [
        "embedding.weight", "loss_layer.weight",
    ]
    for comm, grads, tag, gather in handed:
        fresh = Communicator(WORLD, mesh=comm.mesh).axis("data")
        results = iunique_exchange(fresh, grads, tag=tag).wait()
        lone = [results[ranks[0]].global_indices for ranks in comm.groups]
        got = gather.uniques()
        assert len(got) == len(lone) == len(comm.groups)
        for a, b in zip(got, lone):
            assert (a.dtype, a.shape, a.tobytes()) == (
                b.dtype, b.shape, b.tobytes()
            ), tag


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_small_dense_runs_leave_the_gathers_alone(layout, monkeypatch):
    """When no dense run's scratch covers two gathers, each goes
    alone and the step's peak is the lone schedule's."""
    batch = BatchSpec(4, 10)
    packed = make_trainer(layout, TINY_CFG, batch)
    run(packed)
    lone_gathers(monkeypatch)
    lone = make_trainer(layout, TINY_CFG, batch)
    run(lone)
    tags, _ = gathers(packed)
    assert tags == LONE_TAGS * STEPS
    assert ledger(packed) == ledger(lone)
    assert packed.comm.peak_bytes_per_rank == lone.comm.peak_bytes_per_rank
    assert packed.comm.peak_bytes_per_rank > 0


#: The ledger tags of one step where the gather stage packs nothing:
#: tied embeddings (one exchange) and the allgather baseline, as before
#: the gather stage existed.
UNPACKED = {
    "tied": (
        dict(model_cfg=TIED_CFG),
        ["allgather embedding.weight:indices",
         "allreduce embedding.weight:values",
         "allreduce lstm.w_x+lstm.w_h+lstm.bias+projection.weight"
         "+projection.bias:dense"],
    ),
    "allgather-baseline": (
        dict(use_unique=False),
        ["allgather embedding.weight:indices",
         "allgather embedding.weight:values",
         "allgather loss_layer.weight:indices",
         "allgather loss_layer.weight:values",
         "allreduce lstm.w_x+lstm.w_h+lstm.bias+projection.weight"
         "+projection.bias:dense"],
    ),
}


@pytest.mark.parametrize("case", sorted(UNPACKED))
def test_other_schedules_keep_their_ledger(case):
    overrides, want = UNPACKED[case]
    trainer = make_trainer(**overrides)
    trainer.train_step()
    assert [f"{e.op} {e.tag}" for e in trainer.comm.ledger.events] == want


@pytest.mark.parametrize("overlap", [False, True])
def test_a_step_leaves_no_gather_alive(overlap, monkeypatch):
    """Reference counting frees a step's gathers: a cycle through them
    would keep every rank's index vectors alive until the cyclic
    collector happened to run."""
    made = []
    init = IndexGather.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(IndexGather, "__init__", recording)
    trainer = make_trainer(overlap=overlap)
    gc.disable()
    try:
        trainer.train_step()
        assert len(made) == 2
        assert [ref() for ref in made] == [None, None]
    finally:
        gc.enable()
