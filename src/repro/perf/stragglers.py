"""Straggler analysis: why synchronous efficiency fades with scale.

Synchronous data-parallel training advances at the pace of the *slowest*
rank each step.  With per-rank step times fluctuating (kernel jitter,
host interference, PCIe contention), the expected step time is the
expected **maximum** of G draws, which grows like ``sigma * sqrt(2 ln G)``
for Gaussian jitter — a first-principles source for part of the
overhead term the performance model calibrates against Tables III/IV.

Provides the asymptotic formula, an exact Monte-Carlo estimator, the
induced parallel-efficiency ceiling, and a timeline-backed measurement
(:func:`timeline_synchronous_step`) that *executes* synchronous steps on
a :class:`~repro.cluster.timeline.Timeline` — so a straggler injected
with :func:`repro.cluster.failures.inject_straggler` shifts a measured
schedule, not just a formula.
"""

from __future__ import annotations

import math

import numpy as np

from ..cluster.timeline import Timeline

__all__ = [
    "efficiency_ceiling",
    "expected_max_gaussian",
    "simulate_synchronous_step",
    "straggler_slowdown",
    "timeline_synchronous_step",
]


def expected_max_gaussian(world: int, mean: float, std: float) -> float:
    """Asymptotic expected maximum of ``world`` N(mean, std) step times.

    Uses the standard extreme-value approximation
    ``E[max] ~= mean + std * sqrt(2 ln G)`` (exact enough for G >= 2;
    G = 1 returns the mean).
    """
    if world <= 0:
        raise ValueError("world must be positive")
    if std < 0:
        raise ValueError("std must be non-negative")
    if world == 1:
        return mean
    return mean + std * math.sqrt(2.0 * math.log(world))


def simulate_synchronous_step(
    world: int,
    mean: float,
    std: float,
    rng: np.random.Generator,
    n_steps: int = 1000,
) -> float:
    """Monte-Carlo mean synchronous step time (max over ranks per step).

    Draws are truncated at zero (a step cannot take negative time).
    """
    if world <= 0 or n_steps <= 0:
        raise ValueError("world and n_steps must be positive")
    if std < 0:
        raise ValueError("std must be non-negative")
    times = np.maximum(rng.normal(mean, std, size=(n_steps, world)), 0.0)
    return float(times.max(axis=1).mean())


def timeline_synchronous_step(
    timeline: Timeline,
    compute_s: float,
    comm_s: float = 0.0,
    n_steps: int = 1,
) -> float:
    """Mean measured step time of synchronous steps run on a timeline.

    Each step records ``compute_s`` of compute on every rank (scaled by
    the timeline's per-rank compute scale — the straggler knob), then
    schedules and drains one ``comm_s`` collective, so the step advances
    at the pace of the slowest rank.  With a straggler of factor ``s``
    injected via :func:`repro.cluster.failures.inject_straggler`, the
    measured step time grows from ``compute_s + comm_s`` to
    ``s * compute_s + comm_s`` — the direction (and, for deterministic
    slowdowns, the magnitude) :func:`straggler_slowdown` predicts.
    """
    if compute_s < 0 or comm_s < 0:
        raise ValueError("compute_s and comm_s must be non-negative")
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    start = timeline.mark()
    for step in range(n_steps):
        timeline.record_compute_all(compute_s, name=f"step{step}")
        if comm_s > 0:
            timeline.complete(
                timeline.schedule_collective(comm_s, name=f"sync{step}")
            )
    return timeline.elapsed_since(start) / n_steps


def straggler_slowdown(world: int, cv: float) -> float:
    """Expected slowdown factor vs a jitter-free rank.

    ``cv`` is the coefficient of variation (std/mean) of per-rank step
    time; returns ``E[max] / mean``.
    """
    if not 0 <= cv < 1:
        raise ValueError("cv must be in [0, 1)")
    return expected_max_gaussian(world, 1.0, cv)


def efficiency_ceiling(world: int, cv: float, reference_world: int = 8) -> float:
    """Upper bound on Table-III-style parallel efficiency from jitter alone.

    The measured efficiency at G GPUs (relative to ``reference_world``)
    cannot exceed the ratio of straggler slowdowns — even with free
    communication.
    """
    if world < reference_world:
        raise ValueError("world must be >= reference_world")
    return straggler_slowdown(reference_world, cv) / straggler_slowdown(world, cv)
