"""Tests for collective semantics and cost models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster import collectives as coll
from repro.cluster.collectives import (
    FusedRun,
    allgather_arrays,
    allgather_wire_bytes,
    allreduce_arrays,
    allreduce_wire_bytes,
    recursive_doubling_allreduce_time,
    reduce_scatter_arrays,
    reduce_scatter_wire_bytes,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
)
from repro.cluster.interconnect import LinkSpec

LINK = LinkSpec(bandwidth=1e9, latency=0.0)
LINK_LAT = LinkSpec(bandwidth=1e9, latency=1e-5)


def per_rank(world, shape, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for _ in range(world)]


class TestAllreduceSemantics:
    def test_sum_identical_on_all_ranks(self):
        arrays = per_rank(4, (3, 2))
        out = allreduce_arrays(arrays)
        expected = sum(arrays)
        for o in out:
            np.testing.assert_allclose(o, expected)

    def test_outputs_are_one_read_only_buffer(self):
        arrays = per_rank(2, (2,))
        out = allreduce_arrays(arrays)
        assert out[0] is out[1]
        with pytest.raises(ValueError, match="read-only"):
            out[0][0] = 999.0

    def test_single_rank_identity(self):
        arrays = per_rank(1, (5,))
        np.testing.assert_allclose(allreduce_arrays(arrays)[0], arrays[0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allreduce_arrays([np.zeros(3), np.zeros(4)])

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allreduce_arrays([np.zeros(3, np.float32), np.zeros(3, np.float64)])

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError):
            allreduce_arrays([])

    @given(
        world=st.integers(2, 6),
        data=hnp.arrays(
            np.float64, (3,), elements=st.floats(-10, 10, allow_nan=False)
        ),
    )
    def test_allreduce_of_copies_scales(self, world, data):
        out = allreduce_arrays([data.copy() for _ in range(world)])
        np.testing.assert_allclose(out[0], data * world, rtol=1e-12)


def sparse_block(world, ug, dim, held, dtype, seed=0):
    """A zero-padded ``(world, ug, dim)`` block populated on ``held[m]``."""
    rng = np.random.default_rng(seed)
    block = np.zeros((world, ug, dim), dtype=dtype)
    for m, rows in enumerate(held):
        block[m, rows] = rng.standard_normal((len(rows), dim)).astype(dtype)
    return block, [np.asarray(rows, dtype=np.intp) for rows in held]


def random_rows(world, ug, k, seed=0):
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(ug, size=k, replace=False)) for _ in range(world)]


def sequential(rows):
    """The per-rank sequential fold: rank 0's copy, then each rank added."""
    total = np.array(rows[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows[1:]:
            total += row
    return total


def payload_sum(block, held=None):
    """``block``'s sum as a one-member ring payload, in its row shape."""
    run = FusedRun(v=block, held=None if held is None else {"v": held})
    return allreduce_arrays(run)[0].reshape(block.shape[1:])


class TestRestrictedFold:
    """A ring payload's member block, with or without its row sets, is
    the rank-order fold of its rows, bit for bit, whichever of the two
    folds the block's shape selects."""

    # (world, Ug, dim, K): skipped elements per member on both sides of
    # RESTRICTED_FOLD_MIN_SKIPPED (dense: 736 / 30,720; restricted:
    # 35,840 / 65,024) and, for float16, of
    # RESTRICTED_FOLD_MIN_SKIPPED_FP16 (dense: 736; restricted: the rest).
    SHAPES = [(5, 50, 16, 4), (4, 500, 64, 20), (4, 600, 64, 40), (6, 2048, 32, 16)]

    @staticmethod
    def both_folds(block, rows, monkeypatch):
        """(result, whether the restricted fold ran, sequential fold)."""
        calls = []
        real = coll._restricted_fold
        monkeypatch.setattr(
            coll, "_restricted_fold",
            lambda *a: calls.append(1) or real(*a),
        )
        got = payload_sum(block, rows)
        return got, bool(calls), sequential(block)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_dense_fold_on_both_sides_of_the_rule(
        self, shape, dtype, monkeypatch
    ):
        world, ug, dim, k = shape
        block, rows = sparse_block(
            world, ug, dim, random_rows(world, ug, k), dtype
        )
        got, restricted, want = self.both_folds(block, rows, monkeypatch)
        assert got.tobytes() == want.tobytes()
        skipped = (ug - k) * dim
        threshold = (
            coll.RESTRICTED_FOLD_MIN_SKIPPED_FP16
            if dtype == np.float16
            else coll.RESTRICTED_FOLD_MIN_SKIPPED
        )
        assert restricted == (skipped >= threshold)

    def test_float16_block_takes_the_restricted_fold(self, monkeypatch):
        """word_wire's input-embedding value matrix: 13,696 skipped
        elements per member, under the float32 rule but past float16's,
        whose dense fold numpy runs in software."""
        world, ug, dim = 32, 538, 32
        block, rows = sparse_block(
            world, ug, dim, random_rows(world, ug, 110, seed=3), np.float16
        )
        got, restricted, want = self.both_folds(block, rows, monkeypatch)
        assert restricted
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_negative_zero_ends_as_the_dense_fold_leaves_it(
        self, dtype, monkeypatch
    ):
        """``x + (+0) == x`` except for ``-0.0``: a skipped step may not
        leave a ``-0.0`` behind.  A row every member holds as ``-0.0``
        keeps it, as the sequential fold does."""
        world, ug, dim = 4, 700, 64
        held = random_rows(world, ug, 30, seed=1)
        all_row, one_row, some_row, no_row = 3, 11, 17, 23
        for m in range(world):
            keep = set(held[m]) - {all_row, one_row, some_row, no_row}
            held[m] = sorted(keep | {all_row})
        held[2] = sorted(set(held[2]) | {one_row})
        held[0] = sorted(set(held[0]) | {some_row})
        held[2] = sorted(set(held[2]) | {some_row})
        block, rows = sparse_block(world, ug, dim, held, dtype)
        block[:, all_row] = -0.0       # every member: stays -0.0
        block[2, one_row] = -0.0       # one member: -0.0 + (+0) = +0.0
        block[0, some_row] = -0.0      # members 0 and 2 with a skipped
        block[2, some_row] = -0.0      # member between: +0.0 as well
        got, restricted, want = self.both_folds(block, rows, monkeypatch)
        assert restricted
        assert got.tobytes() == want.tobytes()
        for row in (one_row, some_row, no_row):
            assert not np.signbit(got[row]).any() and not got[row].any()
        assert np.signbit(got[all_row]).all() and not got[all_row].any()

    def test_saturation_and_an_empty_member(self, monkeypatch):
        world, ug, dim = 4, 600, 64
        held = random_rows(world, ug, 40, seed=2)
        held[1] = []  # a member that holds nothing at all
        held[3] = sorted(set(held[3]) | set(held[0][:5]))
        block, rows = sparse_block(world, ug, dim, held, np.float16)
        block[0, held[0][:5]] = 60000.0  # 60000 + 60000 saturates fp16
        block[3, held[0][:5]] = 60000.0
        with np.errstate(over="ignore"):
            got, restricted, want = self.both_folds(block, rows, monkeypatch)
        assert restricted
        assert got.tobytes() == want.tobytes()
        assert np.isinf(got[held[0][:5]]).all()

    def test_row_sets_must_match_the_ranks(self):
        block, rows = sparse_block(4, 600, 64, random_rows(4, 600, 40), np.float32)
        with pytest.raises(ValueError, match="row sets"):
            payload_sum(block, rows[:3])

    @given(
        seed=st.integers(0, 2**32 - 1),
        ring=st.integers(1, 6),
        dtype=st.sampled_from([np.float16, np.float32, np.float64]),
        width=st.integers(0, 12),
        cuts=st.lists(st.integers(0, 12), max_size=4),
        ug=st.integers(1, 8),
        dim=st.integers(1, 3),
        restricted=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_payload_equals_the_sequential_fold(
        self, seed, ring, dtype, width, cuts, ug, dim, restricted
    ):
        """One payload per case: a flat ring's blocks, column views of a
        ``(ring, width)`` block whose pieces hold 0, 1 or more elements
        (the mesh cut), and a zero-padded block with its row sets (the
        restricted fold forced) — each member equal to the sequential
        fold of its rows and to the per-rank list's fold.  A quarter of
        the values are ``-0.0`` or ``+0.0``, and one column of ``flat``
        is ``-0.0`` throughout: it must sum to ``-0.0`` on every ring
        size."""
        rng = np.random.default_rng(seed)

        def values(shape):
            signs = rng.choice([-1.0, 1.0], size=shape)
            magnitude = rng.uniform(0.5, 2.0, shape)
            magnitude[rng.random(shape) < 0.25] = 0.0
            return (signs * magnitude).astype(dtype)

        wide = values((ring, width))
        bounds = sorted({0, width, *(c for c in cuts if c <= width)})
        pieces = {
            f"col{lo}": wide[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])
        }
        pieces["empty"] = wide[:, :0]
        held = random_rows(ring, ug, rng.integers(0, ug + 1), seed=seed)
        padded = np.zeros((ring, ug, dim), dtype)
        for m, rows in enumerate(held):
            padded[m, rows] = values((len(rows), dim))
        flat = values((ring, 3, 2))
        flat[:, 0] = -0.0
        run = FusedRun(
            flat=flat,
            one=values((ring, 1)),
            **pieces,
            padded=padded,
            held={"padded": held},
        )
        with pytest.MonkeyPatch.context() as mp:
            if restricted:
                mp.setattr(coll, "RESTRICTED_FOLD_MIN_SKIPPED", 0)
                mp.setattr(coll, "RESTRICTED_FOLD_MIN_SKIPPED_FP16", 0)
            got = allreduce_arrays(run)[0]
        assert got.dtype == dtype and got.size == run.size
        want = np.concatenate(
            [sequential(block).ravel() for block in run.values()]
        )
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[:2]).all() and not got[:2].any()
        lists = np.concatenate([
            allreduce_arrays([np.ascontiguousarray(r) for r in block])[0].ravel()
            for block in run.values()
        ])
        assert got.tobytes() == lists.tobytes()


class TestAllgatherSemantics:
    def test_rank_order_concatenation(self):
        arrays = [np.full((2, 2), r, dtype=float) for r in range(3)]
        out = allgather_arrays(arrays)
        assert out[0].shape == (6, 2)
        np.testing.assert_allclose(out[0][:2], 0.0)
        np.testing.assert_allclose(out[0][4:], 2.0)

    def test_allgatherv_variable_lengths(self):
        arrays = [np.arange(n, dtype=float) for n in (1, 3, 2)]
        out = allgather_arrays(arrays)
        np.testing.assert_allclose(out[0], [0, 0, 1, 2, 0, 1])

    def test_trailing_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allgather_arrays([np.zeros((2, 3)), np.zeros((2, 4))])

    def test_scalar_rank_contributions(self):
        out = allgather_arrays([np.array(1.0), np.array(2.0)])
        np.testing.assert_allclose(out[0], [1.0, 2.0])


class TestReduceScatterSemantics:
    def test_shards_partition_the_sum(self):
        arrays = per_rank(4, (8, 2))
        out = reduce_scatter_arrays(arrays)
        total = sum(arrays)
        reassembled = np.concatenate(out, axis=0)
        np.testing.assert_allclose(reassembled, total)

    def test_indivisible_leading_dim_rejected(self):
        with pytest.raises(ValueError):
            reduce_scatter_arrays(per_rank(3, (8,)))

    def test_composition_equals_allreduce(self):
        """reduce-scatter + allgather == allreduce (the ring identity)."""
        arrays = per_rank(4, (8,), seed=7)
        shards = reduce_scatter_arrays(arrays)
        gathered = allgather_arrays(shards)
        reduced = allreduce_arrays(arrays)
        np.testing.assert_allclose(gathered[0], reduced[0])


class TestWireBytes:
    def test_allreduce_single_rank_free(self):
        assert allreduce_wire_bytes(1, 1000) == 0

    def test_allreduce_approaches_2x(self):
        assert allreduce_wire_bytes(2, 1000) == 1000
        assert allreduce_wire_bytes(100, 1000) == pytest.approx(1980, abs=1)

    def test_allgather_linear_in_world(self):
        assert allgather_wire_bytes(8, 100) == 700
        assert allgather_wire_bytes(1, 100) == 0

    def test_reduce_scatter_half_of_allreduce(self):
        assert reduce_scatter_wire_bytes(4, 1000) * 2 == allreduce_wire_bytes(4, 1000)


class TestTimeModels:
    def test_allreduce_bandwidth_term(self):
        # 2 * (G-1)/G * n / beta with G=4, n=1e9, beta=1e9 -> 1.5 s
        assert ring_allreduce_time(4, 10**9, LINK) == pytest.approx(1.5)

    def test_allreduce_latency_term(self):
        t = ring_allreduce_time(4, 0, LINK_LAT)
        assert t == pytest.approx(2 * 3 * 1e-5)

    def test_single_rank_is_free(self):
        for f in (
            ring_allreduce_time,
            ring_allgather_time,
            ring_reduce_scatter_time,
            recursive_doubling_allreduce_time,
        ):
            assert f(1, 10**9, LINK) == 0.0

    def test_allgather_time_linear(self):
        assert ring_allgather_time(5, 10**9, LINK) == pytest.approx(4.0)

    def test_reduce_scatter_is_half_allreduce(self):
        rs = ring_reduce_scatter_time(8, 10**6, LINK)
        ar = ring_allreduce_time(8, 10**6, LINK)
        assert rs == pytest.approx(ar / 2)

    def test_recursive_doubling_beats_ring_for_small_messages(self):
        # Few bytes, high latency: log2(G) rounds beat 2(G-1) hops.
        link = LinkSpec(bandwidth=1e9, latency=1e-3)
        world = 64
        assert recursive_doubling_allreduce_time(
            world, 64, link
        ) < ring_allreduce_time(world, 64, link)

    def test_ring_beats_recursive_doubling_for_large_messages(self):
        link = LinkSpec(bandwidth=1e9, latency=1e-6)
        world = 64
        assert ring_allreduce_time(
            world, 10**9, link
        ) < recursive_doubling_allreduce_time(world, 10**9, link)

    @given(world=st.integers(2, 128), nbytes=st.integers(1, 10**9))
    @settings(max_examples=50)
    def test_allreduce_time_monotone_in_bytes(self, world, nbytes):
        t1 = ring_allreduce_time(world, nbytes, LINK)
        t2 = ring_allreduce_time(world, nbytes * 2, LINK)
        assert t2 >= t1
