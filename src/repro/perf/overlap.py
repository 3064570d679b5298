"""Communication/computation overlap analysis.

The paper's TF-1.4 pipeline synchronizes gradients after the backward
pass completes; modern stacks overlap each layer's allreduce with the
remaining backward computation.  This module bounds what overlap would
buy on top of the paper's techniques: with fraction ``f`` of the
communication hideable behind compute, iteration time becomes

    compute + max(0, comm - f * compute) + non_overlappable

(the local update and framework overhead cannot be hidden).  An ablation
bench sweeps ``f`` per workload and GPU count.

:func:`timeline_overlapped_time` cross-checks the closed formula against
the event-level :class:`~repro.cluster.timeline.Timeline`: it *executes*
the overlapped schedule (head compute, issue, tail compute, drain) and
measures the makespan.  The two agree exactly by construction of the
schedule; the benches assert agreement within 5% as a regression guard.
"""

from __future__ import annotations

from ..cluster.timeline import Timeline
from .hardware import PAPER_PLATFORM, Platform
from .model import IterationCost, LMWorkload, PerfModel, TechniqueSet

__all__ = [
    "overlap_speedup",
    "overlapped_time",
    "perfect_overlap_bound",
    "timeline_overlapped_time",
]


def overlapped_time(cost: IterationCost, overlap_fraction: float) -> float:
    """Iteration seconds when ``overlap_fraction`` of compute can hide comm."""
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError("overlap_fraction must be in [0, 1]")
    comm = cost.dense_allreduce + cost.input_exchange + cost.output_exchange
    hidden_budget = overlap_fraction * cost.compute
    exposed_comm = max(0.0, comm - hidden_budget)
    return (
        cost.compute
        + exposed_comm
        + cost.local_update
        + cost.overhead
        + cost.cast_overhead
    )


def timeline_overlapped_time(
    cost: IterationCost,
    overlap_fraction: float,
    world: int = 8,
    n_buckets: int = 8,
    timeline: Timeline | None = None,
) -> float:
    """Measure the overlapped iteration time by *executing* its schedule.

    Plays one iteration onto a :class:`~repro.cluster.timeline.Timeline`
    the way an overlap-capable stack runs it:

    1. each rank computes the non-hideable head,
       ``(1 - overlap_fraction) * compute`` (gradients produced during
       this span have nothing issued yet);
    2. the iteration's communication is issued as ``n_buckets``
       back-to-back collectives, which serialize on the shared link;
    3. each rank computes the remaining ``overlap_fraction * compute``
       tail while the collectives proceed;
    4. every collective is drained (``wait``), then the local update and
       framework/cast overheads run on the compute stream.

    Returns the measured makespan of the iteration (using the supplied
    ``timeline``'s :meth:`~repro.cluster.timeline.Timeline.mark` so a
    straggler-scaled timeline can be passed in).  For an unscaled
    timeline this equals :func:`overlapped_time` exactly — the point of
    the cross-check.
    """
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError("overlap_fraction must be in [0, 1]")
    if n_buckets <= 0:
        raise ValueError("n_buckets must be positive")
    if timeline is None:
        timeline = Timeline(world)
    elif timeline.world_size != world:
        raise ValueError("timeline world size != world")
    start = timeline.mark()

    comm = cost.dense_allreduce + cost.input_exchange + cost.output_exchange
    head = (1.0 - overlap_fraction) * cost.compute
    tail = overlap_fraction * cost.compute
    trailing = cost.local_update + cost.overhead + cost.cast_overhead

    timeline.record_compute_all(head, name="backward:head")
    tickets = [
        timeline.schedule_collective(comm / n_buckets, name=f"bucket{i}")
        for i in range(n_buckets)
    ]
    timeline.record_compute_all(tail, name="backward:tail")
    for ticket in tickets:
        timeline.complete(ticket)
    timeline.record_compute_all(trailing, name="update")
    return timeline.elapsed_since(start)


def overlap_speedup(
    workload: LMWorkload,
    world: int,
    tech: TechniqueSet,
    overlap_fraction: float,
    platform: Platform = PAPER_PLATFORM,
) -> float:
    """Speedup of an overlapped schedule over the sequential one."""
    cost = PerfModel(workload, platform).iteration_cost(world, tech)
    return cost.total / overlapped_time(cost, overlap_fraction)


def perfect_overlap_bound(
    workload: LMWorkload,
    world: int,
    tech: TechniqueSet,
    platform: Platform = PAPER_PLATFORM,
) -> float:
    """Best possible speedup if *all* communication hid behind compute."""
    return overlap_speedup(workload, world, tech, 1.0, platform)
