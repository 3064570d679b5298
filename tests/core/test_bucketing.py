"""Tests for gradient bucketing: one fused allreduce per dense run.

There is no bucket-size budget.  The synchronizer cuts its walk into
maximal runs of consecutive dense-only parameters (a parameter with a
sparse exchange ends a run) and reduces each run as one collective whose
payload is one :class:`~repro.cluster.collectives.FusedRun` of rank
blocks per ring.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import CollectiveMismatchError, Sanitizer
from repro.cluster import (
    Communicator,
    FusedRun,
    allreduce_arrays,
    ring_allreduce_time,
)
from repro.core.compression import Fp16Codec
from repro.core.embedding_sync import GradientSynchronizer
from repro.nn import Module, Parameter, SparseGrad


def comm(world=4):
    return Communicator(world, track_memory=False)


class Toy(Module):
    """Parameters ``p0`` .. whose grads follow ``kinds``.

    ``d`` dense, ``s`` sparse, ``t`` tied (dense and sparse), ``-`` no
    gradient this step; ``z`` a zero-size and ``f`` a float32 dense
    parameter.
    """

    def __init__(self, kinds, rng):
        super().__init__()
        for i, kind in enumerate(kinds):
            shape = (0, 3) if kind == "z" else (5, 3)
            dtype = np.float32 if kind == "f" else np.float64
            p = Parameter(np.zeros(shape, dtype))
            if kind in "dtzf":
                p.grad = rng.standard_normal(shape).astype(dtype)
            if kind in "st":
                p.sparse_grads = [
                    SparseGrad(np.array([i % 5, 1]), rng.standard_normal((2, 3)))
                ]
            setattr(self, f"p{i}", p)


def dense_runs(kinds, world=2, sliced=False):
    """The member lists of the dense records one sync of ``kinds`` makes."""
    c = comm(world)
    replicas = [Toy(kinds, np.random.default_rng(r)) for r in range(world)]
    on_issue = (lambda name: None) if sliced else None
    GradientSynchronizer(c, on_issue=on_issue).sync_replicas(replicas)
    return [
        e.tag[: -len(":dense")].split("+")
        for e in c.ledger.events
        if e.tag.endswith(":dense")
    ]


class TestPlanBuckets:
    def test_greedy_grouping(self):
        assert dense_runs("ddsdd") == [["p0", "p1"], ["p3", "p4"]]

    def test_order_preserved(self):
        for sliced in (False, True):
            # Sliced or not, a run is laid out in registration order.
            runs = dense_runs("dddsd-d", sliced=sliced)
            assert sorted(runs) == [["p0", "p1", "p2"], ["p4", "p6"]]

    def test_empty_input(self):
        c = comm(2)
        GradientSynchronizer(c).sync_replicas(
            [Toy("--", np.random.default_rng(r)) for r in range(2)]
        )
        assert c.ledger.events == []

    def test_zero_byte_tensors_never_force_split(self):
        assert dense_runs("dzzdz") == [["p0", "p1", "p2", "p3", "p4"]]

    def test_all_zero_byte_tensors_fit_one_bucket(self):
        assert dense_runs("zzz") == [["p0", "p1", "p2"]]

    def test_dtype_change_ends_the_run(self):
        """A run is one flat message of one dtype."""
        assert dense_runs("ddffd") == [["p0", "p1"], ["p2", "p3"], ["p4"]]

    def test_tied_parameter_ends_the_run(self):
        """A tied embedding's dense grad is a run of its own."""
        assert dense_runs("ddtd") == [["p0", "p1"], ["p2"], ["p3"]]

    @given(kinds=st.text(alphabet="dst-", max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_property_partition(self, kinds):
        runs = dense_runs(kinds)
        # Runs partition the dense grads in walk order ...
        assert [n for run in runs for n in run] == [
            f"p{i}" for i, k in enumerate(kinds) if k in "dt"
        ]
        # ... and are maximal: only a sparse exchange (a tied parameter
        # at either end, or a sparse one between) separates two runs.
        for prev, run in zip(runs, runs[1:]):
            gap = kinds[int(prev[-1][1:]) : int(run[0][1:]) + 1]
            assert set(gap) & set("st")

    def test_validation(self):
        rng = np.random.default_rng(0)
        replicas = [Toy("dd", rng), Toy("ddd", rng)]
        with pytest.raises(ValueError, match="structurally identical"):
            GradientSynchronizer(comm(2)).sync_replicas(replicas)
        with pytest.raises(ValueError, match="replicas for world size"):
            GradientSynchronizer(comm(3)).sync_replicas(replicas)


def make_run(world, shapes, seed=0, dtype=np.float64):
    """One ring's payload: a ``(world, *shape)`` block per member."""
    rng = np.random.default_rng(seed)
    return FusedRun(
        (f"t{i}", rng.standard_normal((world, *s)).astype(dtype))
        for i, s in enumerate(shapes)
    )


def per_tensor(run):
    """The per-tensor reference: each member's rows folded alone as a
    per-rank list, concatenated."""
    return np.concatenate([
        allreduce_arrays(list(block))[0].ravel() for block in run.values()
    ])


class TestBucketedAllreduce:
    def test_matches_per_tensor_allreduce(self):
        # Size-1 members, odd sizes, and both fold regimes (2 and 3 ranks).
        for world in (2, 3, 5):
            run = make_run(world, [(4,), (2, 3), (5,), (1, 1)], seed=world)
            run["t1"][0, 0, 0] = -0.0
            out = comm(world).allreduce([run])
            assert all(o is out[0] for o in out)
            assert not out[0].flags.writeable
            assert out[0].tobytes() == per_tensor(run).tobytes()

    def test_stacked_blocks_fold_like_the_rows(self):
        """A payload's blocks, column views among them, fold exactly as
        their rows handed over one per rank."""
        world = 4
        wide = np.random.default_rng(2).standard_normal((world, 9))
        run = FusedRun(
            a=np.random.default_rng(0).standard_normal((world, 3, 2)),
            b=np.random.default_rng(1).standard_normal((world, 7)),
            c=wide[:, 2:6],
        )
        out = comm(world).allreduce([run])
        rows = np.concatenate([
            comm(world).allreduce(list(block))[0].ravel()
            for block in run.values()
        ])
        assert out[0].tobytes() == rows.tobytes() == per_tensor(run).tobytes()

    def test_fewer_collectives_than_tensors(self):
        c = comm(2)
        c.allreduce([make_run(2, [(8,)] * 10)])
        assert len(c.ledger.events) == 1

    def test_latency_amortized(self):
        """One run pays the 2 (G-1) latency hops once, not per tensor."""
        world = 8
        run = make_run(world, [(16,)] * 20)
        c_fused = comm(world)
        c_fused.allreduce([run], tag="run")
        c_per_tensor = comm(world)
        for block in run.values():
            c_per_tensor.allreduce(list(block))
        assert c_fused.ledger.total_time_s < c_per_tensor.ledger.total_time_s
        (event,) = c_fused.ledger.events
        assert event.time_s == ring_allreduce_time(
            world, 20 * 16 * 8, c_fused.link
        )

    def test_codec_applied_per_bucket(self):
        """The FP16 codec encodes every member block; the run sums in
        FP16, bit for bit as the per-rank encodes."""
        world = 2
        run = make_run(world, [(64,), (64,)], dtype=np.float32)
        codec = Fp16Codec(512.0)
        wire = run.map(codec.encode)
        assert all(m.dtype == np.float16 for m in wire.values())
        for name, block in run.items():
            rows = np.stack([codec.encode(row) for row in block])
            assert wire[name].tobytes() == rows.tobytes()
        c = comm(world)
        out = codec.decode(c.allreduce([wire])[0], np.float32)
        np.testing.assert_allclose(
            out[:64], run["t0"][0] + run["t0"][1], atol=5e-3
        )
        # Wire bytes halved relative to fp32.
        assert c.ledger.events[0].wire_bytes_per_rank < 2 * 64 * 4

    def test_empty_tensor_list(self):
        c = comm(2)
        with pytest.raises(ValueError, match="at least one member"):
            c.allreduce([FusedRun()])
        assert c.ledger.events == []

    def test_structure_validation(self):
        world = 2
        with pytest.raises(ValueError, match=r"payloads of \[1\] ranks"):
            comm(world).allreduce([make_run(1, [(3,)])])  # wrong ring size
        with pytest.raises(ValueError, match=r"payloads of \[2, 2\] ranks"):
            comm(world).allreduce([make_run(2, [(3,)])] * 2)  # two rings
        with pytest.raises(ValueError, match="leading length"):
            comm(world).allreduce(
                [FusedRun(a=np.ones((2, 3)), b=np.ones((3, 3)))]
            )
        with pytest.raises(ValueError, match="float32"):
            comm(world).allreduce(
                [FusedRun(a=np.ones((2, 3)), b=np.ones((2, 2), np.float32))]
            )


class TestHooksSeeMembers:
    def test_sanitizer_names_the_member_holding_a_nan(self):
        world = 3
        run = make_run(world, [(4,), (2, 2), (3,)])
        run["t1"][1, 1, 0] = np.nan
        c = comm(world)
        Sanitizer(c)
        with pytest.raises(CollectiveMismatchError) as err:
            c.allreduce([run], tag="t0+t1+t2:dense")
        assert "[t1]" in str(err.value) and "rank 1" in str(err.value)
        assert "non-finite" in str(err.value)
        assert c.ledger.events == []

    def test_sanitizer_rejects_mismatched_members(self):
        """A member block without one row per rank of the ring."""
        c = comm(2)
        Sanitizer(c)
        with pytest.raises(CollectiveMismatchError, match=r"\(3, 2\)"):
            c.allreduce([FusedRun(a=np.ones((2, 2)), b=np.ones((3, 2)))])

    def test_fault_replay_counts_a_run_once(self):
        from repro.cluster import ChaosCommunicator

        c = ChaosCommunicator(2, track_memory=False)
        c.allreduce([make_run(2, [(4,)] * 6)])
        assert c.replay.collectives_issued == 1
