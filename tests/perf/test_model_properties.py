"""Property-based tests on the performance model's structural laws."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf import (
    ALL_TECHNIQUES,
    BASELINE,
    CHAR_LM_1B,
    UNIQUE_ONLY,
    WORD_LM_1B,
    PerfModel,
)

WORKLOADS = [WORD_LM_1B, CHAR_LM_1B]
worlds = st.integers(1, 200)


class TestMonotonicity:
    @given(g1=st.integers(1, 64), g2=st.integers(1, 64))
    @settings(max_examples=50)
    def test_technique_epoch_hours_decrease_with_gpus(self, g1, g2):
        """Within the paper's evaluated range (<= 64 GPUs), adding GPUs
        never makes an epoch meaningfully slower with the techniques.
        (Past ~150 GPUs the modeled overhead growth deliberately turns
        the curve — the efficiency collapse Table III foreshadows.)"""
        lo, hi = sorted((g1, g2))
        if lo == hi:
            return
        model = PerfModel(WORD_LM_1B)
        # 5% tolerance: the calibrated overhead gives the curve a shallow
        # minimum near ~40 GPUs, so the tail of the evaluated range is
        # near-flat rather than strictly decreasing.
        assert model.epoch_hours(hi, ALL_TECHNIQUES) <= model.epoch_hours(
            lo, ALL_TECHNIQUES
        ) * 1.05

    @given(g=worlds)
    @settings(max_examples=50)
    def test_baseline_never_cheaper_than_uniqueness(self, g):
        """Uniqueness alone (no cast overheads) strictly dominates the
        baseline at every scale.  The FULL stack can lose at trivial G
        for the char LM — the Section V-B cast-overhead effect — which
        is why the comparison pins UNIQUE_ONLY."""
        for workload in WORKLOADS:
            model = PerfModel(workload)
            assert model.epoch_hours(g, BASELINE) >= model.epoch_hours(
                g, UNIQUE_ONLY
            )

    @given(g=worlds)
    @settings(max_examples=50)
    def test_baseline_memory_grows_with_world(self, g):
        model = PerfModel(WORD_LM_1B)
        if g < 200:
            assert model.peak_memory_bytes(
                g + 1, BASELINE
            ) >= model.peak_memory_bytes(g, BASELINE)

    @given(g=worlds)
    @settings(max_examples=50)
    def test_oom_monotone_in_world(self, g):
        """If a configuration OOMs at G GPUs it OOMs at G+1 (baseline
        scratch only grows)."""
        model = PerfModel(WORD_LM_1B)
        if g < 200 and model.is_oom(g, BASELINE):
            assert model.is_oom(g + 1, BASELINE)


class TestStructuralBounds:
    @given(g=worlds)
    @settings(max_examples=50)
    def test_unique_rows_bounded(self, g):
        for workload in WORKLOADS:
            model = PerfModel(workload)
            ug = model.unique_input_rows(g)
            assert 0 < ug <= workload.vocab_size
            assert ug <= g * workload.local_batch_tokens

    @given(g=st.integers(2, 200))
    @settings(max_examples=50)
    def test_seeding_never_increases_output_rows(self, g):
        model = PerfModel(WORD_LM_1B)
        seeded = model.unique_output_rows(g, seeding=True)
        unseeded = model.unique_output_rows(g, seeding=False)
        assert seeded <= unseeded + 1e-9

    @given(g=worlds)
    @settings(max_examples=50)
    def test_iteration_cost_components_nonnegative(self, g):
        for workload in WORKLOADS:
            for tech in (BASELINE, UNIQUE_ONLY, ALL_TECHNIQUES):
                cost = PerfModel(workload).iteration_cost(g, tech)
                for value in (
                    cost.compute,
                    cost.dense_allreduce,
                    cost.input_exchange,
                    cost.output_exchange,
                    cost.local_update,
                    cost.overhead,
                    cost.cast_overhead,
                ):
                    assert value >= 0

    @given(g=st.integers(8, 200))
    @settings(max_examples=50)
    def test_efficiency_in_unit_interval(self, g):
        model = PerfModel(CHAR_LM_1B)
        eff = model.parallel_efficiency(g, ALL_TECHNIQUES)
        assert 0 < eff <= 1.05  # tiny tolerance for single-node boundary

    @given(g=worlds)
    @settings(max_examples=30)
    def test_compression_never_increases_word_lm_time(self, g):
        """For the word LM (no cast-overhead penalty) compression can
        only shrink wire terms."""
        from repro.perf import UNIQUE_SEEDING

        model = PerfModel(WORD_LM_1B)
        assert model.epoch_hours(g, ALL_TECHNIQUES) <= model.epoch_hours(
            g, UNIQUE_SEEDING
        ) + 1e-12
