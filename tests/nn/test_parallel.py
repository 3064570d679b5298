"""Tests for the tensor-parallel layers and the pipeline schedule.

The bit-exactness properties run through the in-repo shrinking harness
(:mod:`tests.proptest`).  Two regimes, per the sharding math:

* Zero-contribution reassembly (embedding, vocab-parallel softmax) is
  exact for **arbitrary floats**: adding an exact zero never perturbs a
  value, so sharded and unsharded paths are bit-identical.
* Reduction-dim splitting (row-parallel forward, column-parallel input
  grad) reorders float additions, so those properties draw
  **integer-valued** weights and data — exact in binary float — to pin
  bit-equality without tolerances.
"""

import numpy as np
import pytest

from repro.cluster import Communicator, hybrid_mesh
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.parallel import (
    ColumnParallelLinear,
    ParallelEmbedding,
    PipelineSchedule,
    RowParallelLinear,
    VocabParallelSampledSoftmax,
    shard_bounds,
)
from repro.nn.sampled_softmax import SampledSoftmaxLoss
from ..proptest import run_property


def integerize(module) -> None:
    """Round every parameter to whole floats (exact binary values)."""
    for p in module.parameters():
        p.data[...] = np.round(p.data * 8)


def dense_grads(module) -> dict[str, np.ndarray]:
    return {
        name: p.full_grad() for name, p in module.named_parameters()
    }


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_leading_shards(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_covers_every_row_exactly_once(self):
        for total in (5, 16, 31):
            for shards in (1, 2, 3, 5):
                bounds = shard_bounds(total, shards)
                assert bounds[0][0] == 0 and bounds[-1][1] == total
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_bounds(4, 0)
        with pytest.raises(ValueError):
            shard_bounds(2, 3)


class TestColumnRowParallel:
    """Megatron's two-matmul block: Column ∘ Row vs two dense Linears."""

    def test_column_forward_matches_dense(self):
        rng = np.random.default_rng(0)
        dense = Linear(6, 8, np.random.default_rng(7))
        col = ColumnParallelLinear(6, 8, 4, np.random.default_rng(7))
        x = rng.standard_normal((5, 6))
        y_dense, _ = dense.forward(x)
        y_col, _ = col.forward(x)
        np.testing.assert_array_equal(y_col, y_dense)

    def test_row_forward_matches_dense_with_integer_values(self):
        dense = Linear(8, 6, np.random.default_rng(7))
        row = RowParallelLinear(8, 6, 4, np.random.default_rng(7))
        integerize(dense)
        integerize(row)
        x = np.round(
            np.random.default_rng(0).standard_normal((5, 8)) * 4
        )
        y_dense, _ = dense.forward(x)
        y_row, _ = row.forward(x)
        np.testing.assert_array_equal(y_row, y_dense)

    def test_property_mlp_block_bit_exact(self):
        """Column ∘ Row forward+backward ≡ dense pair, bit for bit."""

        def gen(rng):
            shards = int(rng.integers(1, 5))
            return {
                "in_dim": int(rng.integers(1, 5)),
                "hidden": shards * int(rng.integers(1, 4)),
                "out_dim": int(rng.integers(1, 5)),
                "batch": int(rng.integers(1, 5)),
                "shards": shards,
                "seed": int(rng.integers(0, 2**31)),
            }

        def prop(p, rng):
            if p["hidden"] % p["shards"] != 0:
                raise ValueError("hidden must divide into shards")
            mk = lambda: np.random.default_rng(p["seed"])
            d1 = Linear(p["in_dim"], p["hidden"], mk(), bias=True)
            d2 = Linear(p["hidden"], p["out_dim"], mk(), bias=True)
            c1 = ColumnParallelLinear(
                p["in_dim"], p["hidden"], p["shards"], mk()
            )
            r2 = RowParallelLinear(
                p["hidden"], p["out_dim"], p["shards"], mk()
            )
            for m in (d1, d2, c1, r2):
                integerize(m)
            x = np.round(rng.standard_normal((p["batch"], p["in_dim"])) * 4)
            h_d, cache_d1 = d1.forward(x)
            y_d, cache_d2 = d2.forward(h_d)
            h_p, cache_c1 = c1.forward(x)
            y_p, cache_r2 = r2.forward(h_p)
            assert np.array_equal(y_p, y_d)
            g = np.round(rng.standard_normal(y_d.shape) * 4)
            dh_d = d2.backward(g, cache_d2)
            dx_d = d1.backward(dh_d, cache_d1)
            dh_p = r2.backward(g, cache_r2)
            dx_p = c1.backward(dh_p, cache_c1)
            assert np.array_equal(dx_p, dx_d)
            # Shard grads, reassembled, must equal the dense grads.
            w1 = np.concatenate(
                [c1._weights[j].full_grad() for j in range(p["shards"])],
                axis=1,
            )
            assert np.array_equal(w1, d1.weight.full_grad())
            w2 = np.concatenate(
                [r2._weights[j].full_grad() for j in range(p["shards"])],
                axis=0,
            )
            assert np.array_equal(w2, d2.weight.full_grad())

        run_property(prop, gen, n_cases=60, seed=1)

    def test_mesh_comm_charges_tensor_collectives(self):
        world = 4
        mc = Communicator(
            world, track_memory=False, mesh=hybrid_mesh("tensor=G", world)
        )
        col = ColumnParallelLinear(
            4, 8, world, np.random.default_rng(0), comm=mc
        )
        y, cache = col.forward(np.ones((2, 4)))
        col.backward(np.ones_like(y), cache)
        ops = [e.op for e in mc.ledger.events]
        assert "allgather" in ops and "allreduce" in ops

    def test_mesh_shard_mismatch_rejected(self):
        mc = Communicator(
            4, track_memory=False, mesh=hybrid_mesh("tensor=G", 4)
        )
        with pytest.raises(ValueError, match="shards"):
            ColumnParallelLinear(
                4, 8, 2, np.random.default_rng(0), comm=mc
            )

    def test_uneven_column_split_rejected(self):
        with pytest.raises(ValueError, match="divide evenly"):
            ColumnParallelLinear(4, 7, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="divide evenly"):
            RowParallelLinear(7, 4, 2, np.random.default_rng(0))


class TestParallelEmbedding:
    def test_property_gather_bit_exact_arbitrary_floats(self):
        """Zero-contribution reassembly is exact for any float weights."""

        def gen(rng):
            shards = int(rng.integers(1, 6))
            return {
                "vocab": shards + int(rng.integers(1, 40)),
                "dim": int(rng.integers(1, 6)),
                "shards": shards,
                "tokens": int(rng.integers(1, 12)),
                "seed": int(rng.integers(0, 2**31)),
            }

        def prop(p, rng):
            if p["shards"] > p["vocab"]:
                raise ValueError("more shards than rows")
            dense = Embedding(
                p["vocab"], p["dim"], np.random.default_rng(p["seed"])
            )
            par = ParallelEmbedding(
                p["vocab"], p["dim"], p["shards"],
                np.random.default_rng(p["seed"]),
            )
            ids = rng.integers(0, p["vocab"], p["tokens"])
            y_d, cache_d = dense.forward(ids)
            y_p, cache_p = par.forward(ids)
            assert np.array_equal(y_p, y_d)
            assert np.array_equal(par.gathered_weight(), dense.weight.data)
            g = rng.standard_normal(y_d.shape)
            dense.backward(g, cache_d)
            par.backward(g, cache_p)
            merged = np.concatenate(
                [
                    par._weights[j].merged_sparse_grad().to_dense(hi - lo)
                    for j, (lo, hi) in enumerate(par.bounds)
                ],
                axis=0,
            )
            assert np.array_equal(
                merged,
                dense.weight.merged_sparse_grad().to_dense(p["vocab"]),
            )

        run_property(prop, gen, n_cases=60, seed=2)

    def test_out_of_range_ids_rejected(self):
        par = ParallelEmbedding(8, 2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="vocabulary"):
            par.forward(np.array([8]))
        with pytest.raises(ValueError, match="integers"):
            par.forward(np.array([0.5]))


class TestVocabParallelSoftmax:
    def test_property_loss_and_grads_bit_exact(self):
        """Sharded scoring ≡ unsharded SampledSoftmaxLoss, bit for bit."""

        def gen(rng):
            vocab = int(rng.integers(8, 50))
            return {
                "vocab": vocab,
                "hidden": int(rng.integers(1, 6)),
                "samples": int(rng.integers(1, 8)),
                "shards": int(rng.integers(1, 5)),
                "batch": int(rng.integers(1, 6)),
                "seed": int(rng.integers(0, 2**31)),
            }

        def prop(p, rng):
            if p["shards"] > p["vocab"] or p["samples"] >= p["vocab"]:
                raise ValueError("out of domain")
            dense = SampledSoftmaxLoss(
                p["vocab"], p["hidden"], p["samples"],
                np.random.default_rng(p["seed"]),
            )
            par = VocabParallelSampledSoftmax(
                p["vocab"], p["hidden"], p["samples"], p["shards"],
                np.random.default_rng(p["seed"]),
            )
            hidden = rng.standard_normal((p["batch"], p["hidden"]))
            targets = rng.integers(0, p["vocab"], p["batch"])
            draw = np.random.default_rng(123)
            loss_d, cache_d = dense.forward(
                hidden, targets, np.random.default_rng(123)
            )
            loss_p, cache_p = par.forward(hidden, targets, draw)
            assert loss_p == loss_d
            dh_d = dense.backward(cache_d)
            dh_p = par.backward(cache_p)
            assert np.array_equal(dh_p, dh_d)
            merged = np.concatenate(
                [
                    par._weights[j].merged_sparse_grad().to_dense(hi - lo)
                    for j, (lo, hi) in enumerate(par.bounds)
                ],
                axis=0,
            )
            assert np.array_equal(
                merged,
                dense.weight.merged_sparse_grad().to_dense(p["vocab"]),
            )

        run_property(prop, gen, n_cases=40, seed=3)

    def test_mesh_comm_records_logit_allreduce(self):
        world = 2
        mc = Communicator(
            world, track_memory=False, mesh=hybrid_mesh("tensor=G", world)
        )
        layer = VocabParallelSampledSoftmax(
            20, 4, 5, world, np.random.default_rng(0), comm=mc
        )
        hidden = np.random.default_rng(1).standard_normal((3, 4))
        targets = np.array([0, 5, 19])
        layer.forward(hidden, targets, np.random.default_rng(2))
        assert any(
            e.op == "allreduce" for e in mc.ledger.events
        )


class TestPipelineSchedule:
    def test_analytic_formulas(self):
        s = PipelineSchedule(4, 8, fwd_time_s=0.002, bwd_time_s=0.004)
        assert s.makespan_s == pytest.approx((8 + 3) * 0.006)
        assert s.bubble_fraction == pytest.approx(3 / 11)

    def test_more_micros_shrink_the_bubble(self):
        small = PipelineSchedule(4, 4, 0.001, 0.002).bubble_fraction
        large = PipelineSchedule(4, 32, 0.001, 0.002).bubble_fraction
        assert large < small

    def test_single_stage_has_no_bubble(self):
        s = PipelineSchedule(1, 8, 0.001, 0.002)
        assert s.bubble_fraction == 0.0
        assert s.makespan_s == pytest.approx(8 * 0.003)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineSchedule(0, 4, 0.1, 0.1)
        with pytest.raises(ValueError):
            PipelineSchedule(2, 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            PipelineSchedule(2, 4, -0.1, 0.1)

    def test_record_charges_timeline_and_transfers(self):
        world = 4
        mc = Communicator(
            world, track_memory=False, mesh=hybrid_mesh("pipe=2,tensor=1,data=2", world)
        )
        s = PipelineSchedule(2, 4, 0.001, 0.002)
        makespan = s.record(mc, activation_bytes=1 << 20)
        assert makespan == pytest.approx(s.makespan_s)
        transfers = [
            e for e in mc.ledger.events if e.op == "transfer"
        ]
        # (p - 1) boundaries x m micro-batches.
        assert len(transfers) == 4

    def test_record_rejects_stage_mismatch(self):
        mc = Communicator(
            4, track_memory=False, mesh=hybrid_mesh("pipe=2,tensor=1,data=2", 4)
        )
        with pytest.raises(ValueError, match="stage"):
            PipelineSchedule(4, 4, 0.001, 0.002).record(mc)
