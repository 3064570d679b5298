"""Tests for the replica gradient synchronizer."""

import numpy as np
import pytest

from repro.cluster import Communicator, parse_mesh_spec
from repro.core.wire.policy import WirePolicy
from repro.core.embedding_sync import GradientSynchronizer, concat_token_grads
from repro.core.sparse_exchange import AllGatherExchange, UniqueExchange
from repro.optim import SGD, Adam
from repro.nn import Embedding, Linear, Module
from repro.nn.parameter import Parameter, SparseGrad


class TinyModel(Module):
    """Embedding + linear: one sparse-grad and one dense-grad parameter."""

    def __init__(self, rng):
        super().__init__()
        self.emb = Embedding(12, 4, rng)
        self.lin = Linear(4, 2, rng)


def make_replicas(world, seed=0):
    return [TinyModel(np.random.default_rng(seed)) for _ in range(world)]


def run_backward(model, ids, seed):
    rng = np.random.default_rng(seed)
    out, ecache = model.emb.forward(ids)
    y, lcache = model.lin.forward(out)
    g = rng.standard_normal(y.shape)
    dx = model.lin.backward(g, lcache)
    model.emb.backward(dx, ecache)


class TestConcatTokenGrads:
    def test_none_when_empty(self):
        p = Parameter(np.zeros((4, 2)))
        assert concat_token_grads(p) is None

    def test_concatenates_contributions(self):
        p = Parameter(np.zeros((4, 2)))
        p.accumulate_sparse_grad(SparseGrad(np.array([1]), np.ones((1, 2))))
        p.accumulate_sparse_grad(SparseGrad(np.array([1, 3]), np.ones((2, 2))))
        g = concat_token_grads(p)
        np.testing.assert_array_equal(g.indices, [1, 1, 3])

    def test_does_not_coalesce(self):
        """Token-level duplicates must survive (the baseline gathers them)."""
        p = Parameter(np.zeros((4, 2)))
        p.accumulate_sparse_grad(SparseGrad(np.array([2, 2]), np.ones((2, 2))))
        g = concat_token_grads(p)
        assert g.n_tokens == 2


class TestSyncReplicas:
    def test_replicas_agree_after_sync_and_step(self):
        world = 4
        replicas = make_replicas(world)
        for r, m in enumerate(replicas):
            run_backward(m, np.array([[r, r + 1, 0]]), seed=r)
        comm = Communicator(world, track_memory=False)
        GradientSynchronizer(comm, strategy=UniqueExchange()).sync_replicas(replicas)
        # After sync, every rank holds identical gradients.
        base_dense = replicas[0].lin.weight.grad
        base_sparse = replicas[0].emb.weight.merged_sparse_grad()
        for m in replicas[1:]:
            np.testing.assert_allclose(m.lin.weight.grad, base_dense)
            merged = m.emb.weight.merged_sparse_grad()
            np.testing.assert_array_equal(merged.indices, base_sparse.indices)
            np.testing.assert_allclose(merged.values, base_sparse.values)

    def test_average_semantics(self):
        """Synced dense grad == mean of per-rank grads."""
        world = 3
        replicas = make_replicas(world)
        locals_ = []
        for r, m in enumerate(replicas):
            run_backward(m, np.array([[0, 1]]), seed=r)
            locals_.append(m.lin.weight.grad.copy())
        comm = Communicator(world, track_memory=False)
        GradientSynchronizer(comm).sync_replicas(replicas)
        np.testing.assert_allclose(
            replicas[0].lin.weight.grad, np.mean(locals_, axis=0), rtol=1e-12
        )

    def test_sparse_average_matches_dense_reference(self):
        world = 3
        replicas = make_replicas(world)
        reference = np.zeros((12, 4))
        for r, m in enumerate(replicas):
            run_backward(m, np.array([[r, 2 * r, 1]]), seed=10 + r)
            reference += m.emb.weight.merged_sparse_grad().to_dense(12)
        reference /= world
        comm = Communicator(world, track_memory=False)
        GradientSynchronizer(comm, strategy=UniqueExchange()).sync_replicas(replicas)
        np.testing.assert_allclose(
            replicas[0].emb.weight.merged_sparse_grad().to_dense(12),
            reference,
            rtol=1e-12,
        )

    def test_ledger_scopes_attribute_by_parameter(self):
        world = 2
        replicas = make_replicas(world)
        for r, m in enumerate(replicas):
            run_backward(m, np.array([[0]]), seed=r)
        comm = Communicator(world, track_memory=False)
        GradientSynchronizer(comm).sync_replicas(replicas)
        scopes = set(comm.ledger.bytes_by_scope())
        assert any("emb.weight" in s for s in scopes)
        # The dense run is one record, named by its members.
        assert "lin.weight+lin.bias" in scopes
        dense = [e for e in comm.ledger.events if e.tag.endswith(":dense")]
        assert [e.tag for e in dense] == ["lin.weight+lin.bias:dense"]

    def test_codec_applies_to_dense_traffic(self):
        world = 2
        r_plain = make_replicas(world)
        r_fp16 = make_replicas(world)
        for r in range(world):
            run_backward(r_plain[r], np.array([[0, 1]]), seed=r)
            run_backward(r_fp16[r], np.array([[0, 1]]), seed=r)
        c_plain = Communicator(world, track_memory=False)
        c_fp16 = Communicator(world, track_memory=False)
        GradientSynchronizer(c_plain).sync_replicas(r_plain)
        GradientSynchronizer(
            c_fp16, wire=WirePolicy.from_spec("fp16")
        ).sync_replicas(r_fp16)
        assert (
            c_fp16.ledger.total_wire_bytes_per_rank
            < c_plain.ledger.total_wire_bytes_per_rank
        )

    def test_overlap_numerics_identical_to_blocking(self):
        """Slicing backward changes scheduling only — grads stay bit-exact."""
        world = 3
        r_block = make_replicas(world)
        r_over = make_replicas(world)
        for r in range(world):
            run_backward(r_block[r], np.array([[r, r + 1, 0]]), seed=r)
            run_backward(r_over[r], np.array([[r, r + 1, 0]]), seed=r)
        c_block = Communicator(world, track_memory=False)
        c_over = Communicator(world, track_memory=False)
        GradientSynchronizer(
            c_block, strategy=UniqueExchange()
        ).sync_replicas(r_block)
        GradientSynchronizer(
            c_over, strategy=UniqueExchange(), on_issue=lambda name: None
        ).sync_replicas(r_over)
        for mb, mo in zip(r_block, r_over):
            np.testing.assert_array_equal(
                mo.lin.weight.grad, mb.lin.weight.grad
            )
            gb = mb.emb.weight.merged_sparse_grad()
            go = mo.emb.weight.merged_sparse_grad()
            np.testing.assert_array_equal(go.indices, gb.indices)
            np.testing.assert_array_equal(go.values, gb.values)
        assert c_over.ledger.bytes_by_op() == c_block.ledger.bytes_by_op()

    def test_overlap_preserves_ledger_scope_attribution(self):
        """Packs issued at their slice still bill their parameter scope."""
        world = 2
        r_block = make_replicas(world)
        r_over = make_replicas(world)
        for r in range(world):
            run_backward(r_block[r], np.array([[0, 1]]), seed=r)
            run_backward(r_over[r], np.array([[0, 1]]), seed=r)
        c_block = Communicator(world, track_memory=False)
        c_over = Communicator(world, track_memory=False)
        GradientSynchronizer(c_block).sync_replicas(r_block)
        GradientSynchronizer(
            c_over, on_issue=lambda name: None
        ).sync_replicas(r_over)
        assert c_over.ledger.bytes_by_scope() == c_block.ledger.bytes_by_scope()

    def test_overlap_issues_in_reverse_parameter_order(self):
        """Backward produces grads last-layer-first; the sliced step
        records the slices in that order, through the on_issue hook."""
        world = 2
        replicas = make_replicas(world)
        for r in range(world):
            run_backward(replicas[r], np.array([[0, 1]]), seed=r)
        issued = []
        comm = Communicator(world, track_memory=False)
        GradientSynchronizer(comm, on_issue=issued.append).sync_replicas(
            replicas
        )
        names = [n for n, _ in replicas[0].named_parameters()]
        synced = [
            n
            for n, p in reversed(list(replicas[0].named_parameters()))
            if p.grad is not None or p.sparse_grads
        ]
        assert issued == synced
        assert issued == list(reversed([n for n in names if n in issued]))

    def test_replica_count_mismatch_rejected(self):
        comm = Communicator(3, track_memory=False)
        with pytest.raises(ValueError):
            GradientSynchronizer(comm).sync_replicas(make_replicas(2))

    def test_missing_grad_on_one_rank_rejected(self):
        world = 2
        replicas = make_replicas(world)
        run_backward(replicas[0], np.array([[0]]), seed=0)  # rank 1 skipped
        comm = Communicator(world, track_memory=False)
        with pytest.raises(ValueError):
            GradientSynchronizer(comm).sync_replicas(replicas)

    def test_fresh_replicas_are_synced_when_ids_are_reused(self):
        """A new replica list is walked afresh, even when its modules
        take the ids of freed ones: the memo matches modules, not ids."""

        class One(Module):
            def __init__(self, grad):
                super().__init__()
                self.w = Parameter(np.zeros(1))
                self.w.grad = np.array([grad])

        sync = GradientSynchronizer(Communicator(2, track_memory=False))
        for i in range(5):
            replicas = [One(1.0 + i), One(3.0 + i)]
            sync.sync_replicas(replicas)
            assert [m.w.grad[0] for m in replicas] == [2.0 + i, 2.0 + i], i
            del replicas  # freed: the next round's modules may reuse ids


class TestSyncedSparseGradsStayCoalesced:
    """The unique exchange returns sorted-unique rows; the optimizers must
    not run ``np.unique`` + ``np.add.at`` over them a second time."""

    IDS = [[[3, 3, 0]], [[5, 0, 0]], [[3, 9, 11]], [[1, 1, 1]]]

    def synced(self, strategy, world=4, mesh=None, seed=0):
        replicas = make_replicas(world if mesh is None else 2, seed)
        for r, m in enumerate(replicas):
            run_backward(m, np.array(self.IDS[r]), seed=10 * seed + r)
        comm = Communicator(world, track_memory=False)
        if mesh is not None:
            comm.mesh = parse_mesh_spec(mesh, world)
        GradientSynchronizer(comm, strategy=strategy).sync_replicas(replicas)
        return replicas

    def test_unique_exchange_result_is_marked(self):
        for m in self.synced(UniqueExchange()):
            (grad,) = m.emb.weight.sparse_grads
            assert grad.is_coalesced
            merged = m.emb.weight.merged_sparse_grad()
            assert merged.values is grad.values  # handed back, not re-reduced
            assert (np.diff(merged.indices) > 0).all()

    def test_sharded_unique_exchange_result_is_marked(self):
        """Row-range shards ascend and are disjoint, so their join is too."""
        for m in self.synced(
            UniqueExchange(), world=4, mesh="tensor=2,data=2"
        ):
            (grad,) = m.emb.weight.sparse_grads
            assert grad.is_coalesced
            assert (np.diff(grad.indices) > 0).all()

    def test_baseline_exchange_still_coalesces(self):
        """ALLGATHER rows are token-level: duplicates remain, unmarked."""
        for m in self.synced(AllGatherExchange()):
            (grad,) = m.emb.weight.sparse_grads
            assert not grad.is_coalesced
            assert grad.n_tokens == 12
            merged = m.emb.weight.merged_sparse_grad()
            assert merged.n_tokens == len({i for ids in self.IDS for i in ids[0]})
            assert (np.diff(merged.indices) > 0).all()

    @pytest.mark.parametrize(
        "optimizer",
        [
            lambda p: SGD(p, lr=0.1),
            lambda p: SGD(p, lr=0.1, momentum=0.9),
            lambda p: Adam(p, lr=0.01, weight_decay=0.01),
        ],
        ids=["sgd", "sgd-momentum", "adam"],
    )
    def test_mark_changes_no_parameter(self, optimizer):
        marked = unmarked = None
        for strip in (False, True):
            replicas = make_replicas(4)
            opts = [optimizer(list(m.parameters())) for m in replicas]
            for step in range(3):
                for r, m in enumerate(replicas):
                    run_backward(m, np.array(self.IDS[(r + step) % 4]), seed=7 * step + r)
                GradientSynchronizer(
                    Communicator(4, track_memory=False), strategy=UniqueExchange()
                ).sync_replicas(replicas)
                (grad,) = replicas[0].emb.weight.sparse_grads
                assert grad.is_coalesced
                for m in replicas:  # one result object on every replica
                    assert m.emb.weight.sparse_grads[0] is grad
                if strip:
                    del grad._coalesced
                for opt in opts:
                    opt.step()
            state = [p.data.copy() for p in replicas[1].parameters()]
            if strip:
                unmarked = state
            else:
                marked = state
        for a, b in zip(marked, unmarked, strict=True):
            np.testing.assert_array_equal(a, b)
