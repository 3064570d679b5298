"""Tests for hardware presets and footprints."""

import pytest

from repro.data.batching import BatchSpec
from repro.perf import (
    PAPER_PLATFORM,
    PRIOR_WORK_PLATFORM,
    char_lm_footprint,
    word_lm_footprint,
)
from repro.train.config import PAPER_CHAR_LM, PAPER_WORD_LM, WordLMConfig


class TestPlatform:
    def test_paper_cluster_dimensions(self):
        assert PAPER_PLATFORM.gpus_per_node == 8
        assert PAPER_PLATFORM.max_gpus == 400  # 50 nodes x 8
        assert PAPER_PLATFORM.num_nodes(192) == 24

    def test_aggregate_flops(self):
        """0.39 PFLOP/s peak at 64 Titan X, as in Section V-D."""
        assert PAPER_PLATFORM.aggregate_peak_flops(64) == pytest.approx(
            0.39e15, rel=0.01
        )

    def test_prior_work_is_16_pflops(self):
        """128 V100 = 16 PFLOP/s, the paper's '41x more powerful'."""
        assert PRIOR_WORK_PLATFORM.aggregate_peak_flops(128) == pytest.approx(
            16e15, rel=0.01
        )
        ratio = PRIOR_WORK_PLATFORM.aggregate_peak_flops(
            128
        ) / PAPER_PLATFORM.aggregate_peak_flops(64)
        assert ratio == pytest.approx(41, rel=0.02)

    def test_world_bounds(self):
        with pytest.raises(ValueError):
            PAPER_PLATFORM.aggregate_peak_flops(0)
        with pytest.raises(ValueError):
            PAPER_PLATFORM.aggregate_peak_flops(401)


class TestFootprints:
    def test_vocab_truncation_claim(self):
        """Section IV-B: ~800K vocab needs ~8x the memory of 100K —
        the motivation for truncating the vocabulary."""
        batch = BatchSpec(32, 20)
        full = word_lm_footprint(WordLMConfig(vocab_size=800_000), batch)
        cut = word_lm_footprint(PAPER_WORD_LM, batch)
        assert 5 < full.total / cut.total < 9

    def test_100k_word_lm_near_paper_figure(self):
        """Paper: ~1.3 GB for the truncated-vocabulary model."""
        fp = word_lm_footprint(PAPER_WORD_LM, BatchSpec(32, 20))
        assert fp.total == pytest.approx(1.3e9, rel=0.6)

    def test_char_lm_dominated_by_activations(self):
        """Depth-10 RHN over 19,200-token batches caches per-micro-layer
        state: activations dwarf the 98-symbol embeddings."""
        fp = char_lm_footprint(PAPER_CHAR_LM, BatchSpec(128, 150))
        assert fp.activations > fp.parameters

    def test_breakdown_total(self):
        fp = word_lm_footprint(PAPER_WORD_LM, BatchSpec(32, 20))
        assert fp.total == (
            fp.parameters + fp.gradients + fp.optimizer_state + fp.activations
        )

    def test_optimizer_slots(self):
        batch = BatchSpec(32, 20)
        sgd = word_lm_footprint(PAPER_WORD_LM, batch, optimizer_slots=0)
        adam = word_lm_footprint(PAPER_WORD_LM, batch, optimizer_slots=2)
        assert adam.optimizer_state == 2 * adam.parameters
        assert sgd.optimizer_state == 0
