"""Tests for the closed-form complexity bounds and the worked example."""

import pytest

from repro.core.complexity import (
    baseline_allgather_comm_bytes,
    baseline_allgather_memory_bytes,
    expected_global_unique,
    unique_comm_bytes,
    unique_memory_bytes,
    worked_example_256_gpus,
)

GB = 1024**3


class TestExpectedGlobalUnique:
    def test_power_law(self):
        assert expected_global_unique(10_000, alpha=0.5, coeff=1.0) == pytest.approx(100.0)

    def test_capped_at_vocab(self):
        assert expected_global_unique(10**9, vocab_size=98) == 98.0

    def test_capped_at_tokens(self):
        # coeff * N^alpha can exceed N for small N; U <= N always.
        assert expected_global_unique(2, coeff=7.02) <= 2.0

    def test_zero_tokens(self):
        assert expected_global_unique(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_global_unique(-1)
        with pytest.raises(ValueError):
            expected_global_unique(10, alpha=0.0)
        with pytest.raises(ValueError):
            expected_global_unique(10, coeff=0.0)
        with pytest.raises(ValueError):
            expected_global_unique(10, vocab_size=0)


class TestByteFormulas:
    def test_baseline_memory_is_gkd(self):
        assert baseline_allgather_memory_bytes(4, 10, 8) == 4 * 10 * 8 * 4

    def test_baseline_comm(self):
        assert baseline_allgather_comm_bytes(4, 10, 8) == 3 * 10 * 8 * 4

    def test_unique_memory(self):
        assert unique_memory_bytes(4, 10, 8, u_global=5) == 4 * 10 * 4 + 5 * 8 * 4

    def test_unique_comm_has_index_and_value_parts(self):
        got = unique_comm_bytes(4, 10, 8, u_global=5)
        idx = 3 * 10 * 4
        val = 2 * 3 / 4 * 5 * 8 * 4
        assert got == int(idx + val)

    def test_unique_wins_when_duplication_high(self):
        # 64 GPUs x 19,200 tokens but only ~19K unique types.
        g, k, d = 64, 19_200, 1792
        u = expected_global_unique(g * k)
        assert unique_memory_bytes(g, k, d, u) < baseline_allgather_memory_bytes(
            g, k, d
        )
        assert unique_comm_bytes(g, k, d, u) < baseline_allgather_comm_bytes(g, k, d)

    def test_no_advantage_without_duplication(self):
        """If every token is a distinct type (u = G*K), the value traffic
        alone matches the baseline scale — no free lunch."""
        g, k, d = 4, 10, 8
        u = g * k
        assert unique_memory_bytes(g, k, d, u) > baseline_allgather_memory_bytes(
            g, k, d
        ) / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            baseline_allgather_memory_bytes(0, 1, 1)
        with pytest.raises(ValueError):
            unique_memory_bytes(1, 1, 1, -1.0)


class TestWorkedExample:
    def test_paper_numbers(self):
        """Section III-A: 256 GPUs, K = 19,200, D = 1792 -> 35.2 GB
        baseline vs ~0.14 GB unique, a ~250x saving."""
        ex = worked_example_256_gpus()
        assert ex.gpus == 256
        assert ex.local_batch_tokens == 19_200
        assert ex.baseline_memory_bytes / GB == pytest.approx(32.8, rel=0.01)
        # (The paper quotes 35.2 GB using decimal GB: check that too.)
        assert ex.baseline_memory_bytes / 1e9 == pytest.approx(35.2, rel=0.01)
        assert ex.unique_memory_bytes / 1e9 < 0.2
        assert ex.reduction_factor > 150

    def test_heaps_coefficient_variant(self):
        """With the Figure-1 coefficient 7.02 the saving shrinks but the
        unique path still wins by >20x."""
        ex = worked_example_256_gpus(coeff=7.02)
        assert ex.reduction_factor > 20
