"""Tests for the analytic performance model: Tables III/IV/V shapes.

These assert the *shape* claims of the paper's evaluation — who wins,
rough factors, crossovers, OOM onset — not exact wall-clock hours (the
model is calibrated, not fitted point-by-point; see EXPERIMENTS.md for
the paper-vs-model numbers).
"""

from dataclasses import replace

import pytest

from repro.perf import (
    ALL_TECHNIQUES,
    BASELINE,
    CHAR_LM_1B,
    CHAR_LM_TIEBA,
    UNIQUE_ONLY,
    UNIQUE_SEEDING,
    WORD_LM_1B,
    PerfModel,
    TechniqueSet,
)
from repro.perf.hardware import PAPER_PLATFORM

WORD = PerfModel(WORD_LM_1B)
CHAR = PerfModel(CHAR_LM_1B)


class TestTechniqueSet:
    def test_labels(self):
        assert BASELINE.label == "baseline"
        assert UNIQUE_ONLY.label == "+uniqueness"
        assert ALL_TECHNIQUES.label == "+uniqueness+seeding+compression"

    def test_seeding_requires_unique(self):
        with pytest.raises(ValueError):
            TechniqueSet(unique=False, seeding=True)


class TestTableIIIWordLM:
    def test_baseline_ooms_at_32_gpus(self):
        """The '*' cells: OOM at >= 32 GPUs without the techniques."""
        assert not WORD.is_oom(24, BASELINE)
        assert WORD.is_oom(32, BASELINE)
        assert WORD.is_oom(64, BASELINE)

    def test_techniques_never_oom_through_64(self):
        for g in (8, 16, 24, 32, 64):
            assert not WORD.is_oom(g, ALL_TECHNIQUES)

    def test_baseline_memory_grows_linearly(self):
        """Paper: 3.9 / 7.1 / 10.3 GB at 8/16/24 GPUs (~0.4 GB per GPU)."""
        m8 = WORD.peak_memory_bytes(8, BASELINE)
        m16 = WORD.peak_memory_bytes(16, BASELINE)
        m24 = WORD.peak_memory_bytes(24, BASELINE)
        step1 = (m16 - m8) / 8
        step2 = (m24 - m16) / 8
        assert step1 == pytest.approx(step2, rel=1e-6)  # linear
        assert 0.3e9 < step1 < 0.5e9  # ~0.41 GB per GPU
        assert m8 == pytest.approx(3.9e9, rel=0.2)
        assert m24 == pytest.approx(10.3e9, rel=0.15)

    def test_technique_memory_flat(self):
        """Paper: 1.19 GB at 8 GPUs -> 1.21 GB at 64 GPUs."""
        m8 = WORD.peak_memory_bytes(8, ALL_TECHNIQUES)
        m64 = WORD.peak_memory_bytes(64, ALL_TECHNIQUES)
        assert m64 / m8 < 1.1
        assert m8 < 2e9

    def test_memory_reduction_factor(self):
        """Paper: 8.6x at 24 GPUs."""
        ratio = WORD.peak_memory_bytes(24, BASELINE) / WORD.peak_memory_bytes(
            24, ALL_TECHNIQUES
        )
        assert 6 < ratio < 13

    def test_with_technique_hours_match_paper_band(self):
        """Paper: 14.6 / 8.1 / 6.4 / 5.4 / 4.5 hours at 8/16/24/32/64."""
        paper = {8: 14.6, 16: 8.1, 24: 6.4, 32: 5.4, 64: 4.5}
        for g, hours in paper.items():
            assert WORD.epoch_hours(g, ALL_TECHNIQUES) == pytest.approx(
                hours, rel=0.25
            )

    def test_baseline_fails_to_scale(self):
        """Paper: baseline time *rises* from 35.1h (8) to 41.1h (16)."""
        assert WORD.epoch_hours(16, BASELINE) > WORD.epoch_hours(8, BASELINE)

    def test_technique_scales_strongly(self):
        assert WORD.epoch_hours(64, ALL_TECHNIQUES) < WORD.epoch_hours(
            8, ALL_TECHNIQUES
        ) / 2.5

    def test_parallel_efficiency_band(self):
        """Paper: 90% / 76% / 67% / 40% at 16/24/32/64 GPUs."""
        paper = {16: 0.90, 24: 0.76, 32: 0.67, 64: 0.40}
        for g, eff in paper.items():
            assert WORD.parallel_efficiency(g, ALL_TECHNIQUES) == pytest.approx(
                eff, abs=0.12
            )


class TestFigure6Ablation:
    @pytest.mark.parametrize("g,total", [(16, 5.1), (24, 6.3)])
    def test_cumulative_speedup_total(self, g, total):
        """Full stack vs baseline: 5.1x at 16 GPUs, 6.3x at 24."""
        speedup = WORD.epoch_hours(g, BASELINE) / WORD.epoch_hours(
            g, ALL_TECHNIQUES
        )
        assert speedup == pytest.approx(total, rel=0.35)

    @pytest.mark.parametrize("g", [16, 24])
    def test_each_technique_strictly_helps(self, g):
        t_base = WORD.epoch_hours(g, BASELINE)
        t_uniq = WORD.epoch_hours(g, UNIQUE_ONLY)
        t_seed = WORD.epoch_hours(g, UNIQUE_SEEDING)
        t_all = WORD.epoch_hours(g, ALL_TECHNIQUES)
        assert t_base > t_uniq > t_seed > t_all

    def test_uniqueness_dominates_the_gain(self):
        """Paper: uniqueness alone is 4.0x of the 5.1x at 16 GPUs."""
        base = WORD.epoch_hours(16, BASELINE)
        uniq_share = (base - WORD.epoch_hours(16, UNIQUE_ONLY)) / (
            base - WORD.epoch_hours(16, ALL_TECHNIQUES)
        )
        assert uniq_share > 0.7

    def test_speedup_grows_with_gpus(self):
        """Paper: 5.1x (16) -> 6.3x (24): the types/tokens gap widens."""
        s16 = WORD.epoch_hours(16, BASELINE) / WORD.epoch_hours(16, ALL_TECHNIQUES)
        s24 = WORD.epoch_hours(24, BASELINE) / WORD.epoch_hours(24, ALL_TECHNIQUES)
        assert s24 > s16


class TestTableIVCharLM:
    def test_baseline_ooms_beyond_24(self):
        assert not CHAR.is_oom(24, BASELINE)
        assert CHAR.is_oom(32, BASELINE)

    def test_with_technique_hours_match_paper_band(self):
        """Paper: 23.2 / 12.9 / 8.2 / 6.8 / 3.5 hours."""
        paper = {8: 23.2, 16: 12.9, 24: 8.2, 32: 6.8, 64: 3.5}
        for g, hours in paper.items():
            assert CHAR.epoch_hours(g, ALL_TECHNIQUES) == pytest.approx(
                hours, rel=0.25
            )

    def test_baseline_gap_smaller_than_word_lm(self):
        """Char vocab saturates at 98 types, so uniqueness helps less:
        baseline/technique ratio at 16 GPUs is ~1.1x (vs ~5x for words)."""
        char_ratio = CHAR.epoch_hours(16, BASELINE) / CHAR.epoch_hours(
            16, ALL_TECHNIQUES
        )
        word_ratio = WORD.epoch_hours(16, BASELINE) / WORD.epoch_hours(
            16, ALL_TECHNIQUES
        )
        assert 1.0 < char_ratio < 1.6
        assert word_ratio > 3 * char_ratio

    def test_efficiency_band(self):
        """Paper: 96% / 94% / 86% / 82% at 16/24/32/64 GPUs."""
        paper = {16: 0.96, 24: 0.94, 32: 0.86, 64: 0.82}
        for g, eff in paper.items():
            assert CHAR.parallel_efficiency(g, ALL_TECHNIQUES) == pytest.approx(
                eff, abs=0.12
            )

    def test_compression_overhead_limits_char_gain(self):
        """Paper: only ~2% gain from compression for char LM (cast
        overhead on >20 tensors)."""
        t_no = CHAR.epoch_hours(16, UNIQUE_ONLY)
        t_yes = CHAR.epoch_hours(
            16, TechniqueSet(unique=True, compression=True)
        )
        gain = (t_no - t_yes) / t_no
        assert -0.05 < gain < 0.1

    def test_unique_rows_saturate_at_char_vocab(self):
        """Section V-B: unique characters hit the vocabulary ceiling."""
        assert CHAR.unique_input_rows(8) == 98.0
        assert CHAR.unique_input_rows(64) == 98.0


class TestTableVTiebaWeakScaling:
    @staticmethod
    def hours(gpus: int, data_factor: float) -> float:
        w = CHAR_LM_TIEBA.scaled(tokens_per_epoch=1.07e9 * data_factor)
        return PerfModel(w).epoch_hours(gpus, ALL_TECHNIQUES)

    def test_time_increases_match_paper(self):
        """Paper: 27h -> 28h (1.04x at 4x data) -> 34h (1.25x at 32x)."""
        t6 = self.hours(6, 1)
        t24 = self.hours(24, 4)
        t192 = self.hours(192, 32)
        assert t6 == pytest.approx(27.0, rel=0.15)
        assert t24 / t6 == pytest.approx(1.04, abs=0.08)
        assert t192 / t6 == pytest.approx(1.25, abs=0.1)

    def test_15k_vocab_benefits_from_unique(self):
        """Tieba's 15,437-char vocabulary is ~150x English: the unique
        path saturates at |V| rather than G*K."""
        m = PerfModel(CHAR_LM_TIEBA)
        assert m.unique_input_rows(192) == 15_437.0

    def test_never_oom_at_192(self):
        m = PerfModel(CHAR_LM_TIEBA)
        assert not m.is_oom(192, ALL_TECHNIQUES)


class TestModelValidation:
    def test_world_bounds(self):
        with pytest.raises(ValueError):
            WORD.epoch_hours(0, BASELINE)
        with pytest.raises(ValueError):
            WORD.epoch_hours(500, BASELINE)

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            WORD_LM_1B.scaled(compute_seconds_per_iter=0.0)
        with pytest.raises(ValueError):
            WORD_LM_1B.scaled(baseline_inefficiency=0.5)
        with pytest.raises(ValueError):
            WORD_LM_1B.scaled(vocab_size=0)

    def test_iteration_cost_components_positive(self):
        cost = WORD.iteration_cost(16, ALL_TECHNIQUES)
        assert cost.compute > 0
        assert cost.dense_allreduce > 0
        assert cost.input_exchange > 0
        assert cost.output_exchange > 0
        assert cost.total > cost.compute

    def test_full_softmax_has_no_output_exchange(self):
        cost = CHAR.iteration_cost(16, ALL_TECHNIQUES)
        assert cost.output_exchange == 0.0


class TestOOMOnset:
    def test_word_lm_baseline_onset_at_32(self):
        """Table III's '*' boundary: first OOM between 24 and 32 GPUs."""
        onset = WORD.oom_onset(BASELINE)
        assert onset is not None
        assert 24 < onset <= 32

    def test_char_lm_baseline_onset_at_32(self):
        onset = CHAR.oom_onset(BASELINE)
        assert onset is not None
        assert 24 < onset <= 32

    def test_techniques_never_oom(self):
        assert WORD.oom_onset(ALL_TECHNIQUES) is None
        assert CHAR.oom_onset(ALL_TECHNIQUES) is None

    @pytest.mark.parametrize("workload", [WORD_LM_1B, CHAR_LM_1B], ids=["word", "char"])
    @pytest.mark.parametrize(
        "tech", [BASELINE, ALL_TECHNIQUES], ids=["baseline", "techniques"]
    )
    def test_bisection_equals_the_linear_scan(self, workload, tech):
        """``oom_onset`` bisects on the monotonicity its docstring states;
        the scan over every world size is its reference (on a 48-GPU
        platform, past both baseline onsets, to keep the scan cheap)."""
        model = PerfModel(workload, replace(PAPER_PLATFORM, max_gpus=48))
        worlds = range(1, 49)
        oom = [model.is_oom(world, tech) for world in worlds]
        assert oom == sorted(oom)  # monotone: never fits again after an OOM
        scan = next((w for w, out in zip(worlds, oom) if out), None)
        assert model.oom_onset(tech) == scan
        assert (scan is None) == (tech is ALL_TECHNIQUES)
