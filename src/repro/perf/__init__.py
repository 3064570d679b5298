"""Analytic performance model: hardware presets, memory footprints,
iteration/epoch time, and the model's speedup and efficiency."""

from .calibration import CalibrationResult, calibrate_workload
from .codec_model import (
    CodecThroughput,
    calibrate_codec_throughput,
    fused_reduce_time,
    pipelined_transfer_time,
    timeline_fused_reduce,
    timeline_pipelined_transfer,
    uniform_fused_plan,
)
from .checkpoint_overhead import (
    checkpoint_cost_seconds,
    daly_interval,
    expected_overhead_fraction,
    optimal_checkpoint_steps,
    young_interval,
)
from .hardware import PAPER_PLATFORM, PRIOR_WORK_PLATFORM, Platform
from .memory import FootprintBreakdown, char_lm_footprint, word_lm_footprint
from .overlap import (
    overlap_speedup,
    overlapped_time,
    perfect_overlap_bound,
    timeline_overlapped_time,
)
from .stragglers import (
    efficiency_ceiling,
    expected_max_gaussian,
    simulate_synchronous_step,
    straggler_slowdown,
    timeline_synchronous_step,
)
from .model import (
    ALL_TECHNIQUES,
    BASELINE,
    CHAR_LM_1B,
    CHAR_LM_TIEBA,
    UNIQUE_ONLY,
    UNIQUE_SEEDING,
    WORD_LM_1B,
    IterationCost,
    LMWorkload,
    PerfModel,
    TechniqueSet,
)

__all__ = [
    "Platform",
    "CalibrationResult",
    "calibrate_workload",
    "CodecThroughput",
    "calibrate_codec_throughput",
    "fused_reduce_time",
    "pipelined_transfer_time",
    "timeline_fused_reduce",
    "timeline_pipelined_transfer",
    "uniform_fused_plan",
    "checkpoint_cost_seconds",
    "young_interval",
    "daly_interval",
    "expected_overhead_fraction",
    "optimal_checkpoint_steps",
    "overlapped_time",
    "overlap_speedup",
    "perfect_overlap_bound",
    "timeline_overlapped_time",
    "expected_max_gaussian",
    "simulate_synchronous_step",
    "straggler_slowdown",
    "efficiency_ceiling",
    "timeline_synchronous_step",
    "PAPER_PLATFORM",
    "PRIOR_WORK_PLATFORM",
    "FootprintBreakdown",
    "word_lm_footprint",
    "char_lm_footprint",
    "TechniqueSet",
    "BASELINE",
    "UNIQUE_ONLY",
    "UNIQUE_SEEDING",
    "ALL_TECHNIQUES",
    "LMWorkload",
    "IterationCost",
    "PerfModel",
    "WORD_LM_1B",
    "CHAR_LM_1B",
    "CHAR_LM_TIEBA",
]
