"""Throughput calibration and time models for wire codecs.

Companion to :mod:`repro.core.wire.cost`, which holds the primitive
crossover inequality the adaptive selector needs *below* the exchange
layer.  This module adds the perf-layer pieces:

* :func:`calibrate_codec_throughput` — measure a codec's real
  encode/decode bytes-per-second on this host (the deterministic
  :data:`~repro.core.wire.cost.DEFAULT_CODEC_THROUGHPUTS` model the
  simulated accelerator instead, and are what simulated timelines use);
* :func:`fused_reduce_time` / :func:`timeline_fused_reduce` — the
  analytic-vs-executed pair for the **fused compressed reductions** of
  :mod:`repro.core.wire.fused`, driven by a shared
  :class:`~repro.core.wire.fused.FusedReducePlan` so all three views
  (live collective, closed recurrence, Timeline replay) agree on every
  hop byte count; :func:`uniform_fused_plan` builds such plans from
  uniform byte arithmetic when no real payload exists (bench sweeps).
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from ..cluster.interconnect import LinkSpec
from ..cluster.timeline import Timeline
from ..core.wire.cost import CodecThroughput
from ..core.wire.fused import FusedReducePlan

__all__ = [
    "CodecThroughput",
    "calibrate_codec_throughput",
    "fused_reduce_time",
    "timeline_fused_reduce",
    "uniform_fused_plan",
]


def calibrate_codec_throughput(
    codec,
    nbytes: int = 8 << 20,
    repeats: int = 3,
    seed: int = 0,
    vocab: int = 10_000_000,
    registry=None,
) -> CodecThroughput:
    """Measure ``codec``'s host encode/decode throughput (bytes/second).

    Encodes/decodes a sorted unique int64 index vector of ``nbytes``
    (the wire payload the index codecs exist for; a float32 gradient
    for a value codec such as FP16) ``repeats`` times and
    reports logical bytes over the *best* wall-clock repeat — the
    standard way to estimate a throughput ceiling under OS noise.

    The result describes *this host's numpy implementation*; simulated
    timelines keep using the deterministic accelerator-class defaults of
    :data:`~repro.core.wire.cost.DEFAULT_CODEC_THROUGHPUTS`.  Use this
    to build an honest ``throughputs=`` table when the selector should
    reflect wall-clock reality (e.g. the wire-compression bench tables).

    When ``registry`` (a :class:`~repro.telemetry.MetricsRegistry`) is
    given, the calibrated figures are also published as
    ``repro_codec_calibrated_bps{codec=...,direction=...}`` gauges so
    benchmark emission picks them up.
    """
    if nbytes < 8:
        raise ValueError("nbytes must cover at least one int64 element")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    rng = np.random.default_rng(seed)
    n = nbytes // 8
    if getattr(codec, "lossless", False):
        data = np.sort(
            rng.choice(max(vocab, n), size=n, replace=False).astype(np.int64)
        )
    else:
        data = rng.standard_normal(nbytes // 4).astype(np.float32)
    codec.encode(data)  # warm-up: first call pays allocator costs
    best_encode = best_decode = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        frame = codec.encode(data)
        best_encode = min(best_encode, time.perf_counter() - t0)
        t0 = time.perf_counter()
        codec.decode(frame, data.dtype)
        best_decode = min(best_decode, time.perf_counter() - t0)
    result = CodecThroughput(
        encode_bps=data.nbytes / best_encode,
        decode_bps=data.nbytes / best_decode,
    )
    if registry is not None:
        gauge = registry.gauge(
            "repro_codec_calibrated_bps",
            "Host-measured codec throughput (bytes/second)",
            labelnames=("codec", "direction"),
        )
        gauge.set(result.encode_bps, codec=codec.name, direction="encode")
        gauge.set(result.decode_bps, codec=codec.name, direction="decode")
    return result


def uniform_fused_plan(
    logical_bytes: int,
    world: int,
    *,
    encoded_ratio: float = 1.0,
    chunk_bytes: int | None = None,
    charge_codec: bool = True,
) -> FusedReducePlan:
    """Build a :class:`~repro.core.wire.fused.FusedReducePlan` from
    uniform byte arithmetic — no payload arrays required.

    Mirrors the geometry of
    :func:`repro.core.wire.fused.plan_fused_reduce` for a per-rank
    contribution of ``logical_bytes``: the shard piece is
    ``ceil(logical_bytes / world)`` (the live planner zero-pads to a
    world multiple), split into ``chunk_bytes`` pipeline chunks, with
    every hop's encoded size modeled as ``logical / encoded_ratio``.
    ``charge_codec=False`` reproduces the ``codec=None`` raw plan
    (no encode/decode charges, wire ships logical bytes).  Use for
    bench sweeps where materializing multi-hundred-MB gradients per
    rank would be wasteful; the recurrence/Timeline pair consumes the
    result exactly like a measured plan.
    """
    if logical_bytes <= 0:
        raise ValueError("logical_bytes must be positive")
    if world < 1:
        raise ValueError("world must be >= 1")
    if encoded_ratio <= 0:
        raise ValueError("encoded_ratio must be positive")
    if world == 1:
        chg = logical_bytes if charge_codec else 0
        return FusedReducePlan(
            world=1,
            chunk_logical=(logical_bytes,), pre_encode=(chg,),
            rs_hop_bytes=((),), ag_hop_bytes=((),), final_decode=(chg,),
        )
    shard = -(-logical_bytes // world)
    if chunk_bytes is None or chunk_bytes >= shard:
        chunks = [shard]
    else:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        chunks = [chunk_bytes] * (shard // chunk_bytes)
        if shard % chunk_bytes:
            chunks.append(shard % chunk_bytes)
    hops = world - 1
    enc = [
        (lb if not charge_codec else max(1, round(lb / encoded_ratio)))
        for lb in chunks
    ]
    hop_bytes = tuple(tuple(eb for _ in range(hops)) for eb in enc)
    coded = tuple(world * lb if charge_codec else 0 for lb in chunks)
    return FusedReducePlan(
        world=world,
        chunk_logical=tuple(chunks), pre_encode=coded,
        rs_hop_bytes=hop_bytes, ag_hop_bytes=hop_bytes, final_decode=coded,
    )


@lru_cache(maxsize=1024)
def fused_reduce_time(
    plan: FusedReducePlan,
    link: LinkSpec,
    throughput: CodecThroughput | None = None,
) -> float:
    """Closed-form makespan of one fused compressed reduction.

    Replays, in plain arithmetic, **exactly** the schedule
    :func:`repro.core.wire.fused.icompressed_allreduce` puts on the
    Timeline for ``plan`` — same hop-major issue order, same drain
    cuts — so for an unscaled timeline the result equals
    :func:`timeline_fused_reduce` *exactly*, not merely within
    tolerance (the wire benches gate at ``1e-9`` relative).
    Ranks are uniform: one compute clock stands for all, and a
    collective's start is ``max(compute, link_free)`` (the Timeline's
    extra ``_max_comm`` term never exceeds ``link_free``).

    ``throughput=None`` evaluates the schedule with codec charges
    suppressed, matching ``codec=None`` (the raw ring) on the live
    path.  Memoized: plans, links and throughputs are all
    frozen/hashable and bench sweeps repeat keys heavily.
    """
    world, hops = plan.world, plan.world - 1
    chunks = plan.chunk_logical
    tp = throughput

    def enc_s(lb: int) -> float:
        return tp.encode_seconds(lb) if tp is not None and lb else 0.0

    def dec_s(lb: int) -> float:
        return tp.decode_seconds(lb) if tp is not None and lb else 0.0

    compute = 0.0
    link_free = 0.0
    for h in range(hops):
        for c in range(len(chunks)):
            if h == 0:
                compute += enc_s(plan.pre_encode[c])
            start = max(compute, link_free)
            link_free = start + link.transfer_time(plan.rs_hop_bytes[c][h])
    if world == 1:
        compute += enc_s(plan.pre_encode[0])
    last_end = [0.0] * len(chunks)
    if hops:
        for c in range(len(chunks)):
            for h in range(hops):
                start = max(compute, link_free)
                link_free = start + link.transfer_time(
                    plan.ag_hop_bytes[c][h]
                )
            last_end[c] = link_free
    for c, lb in enumerate(plan.final_decode):
        compute = max(compute, last_end[c])
        compute += dec_s(lb)
    return compute


def timeline_fused_reduce(
    plan: FusedReducePlan,
    link: LinkSpec,
    throughput: CodecThroughput | None = None,
    timeline: Timeline | None = None,
) -> float:
    """Measure a fused reduction by *executing* its schedule.

    Plays ``plan`` onto a real :class:`~repro.cluster.timeline.Timeline`
    with the same issue order and drain cuts as the live collectives,
    and returns the measured makespan — the executed half of the
    :func:`fused_reduce_time` cross-check.
    """
    world, hops = plan.world, plan.world - 1
    chunks = plan.chunk_logical
    if timeline is None:
        timeline = Timeline(world)
    elif timeline.world_size != world:
        raise ValueError("timeline world size != plan world")
    start = timeline.mark()

    def charge(kind: str, lb: int) -> None:
        if throughput is None or lb == 0:
            return
        secs = (
            throughput.encode_seconds(lb) if kind == "encode"
            else throughput.decode_seconds(lb)
        )
        timeline.record_compute_all(secs, name=f"codec:{kind}")

    tickets: list = []
    for h in range(hops):
        for c in range(len(chunks)):
            if h == 0:
                charge("encode", plan.pre_encode[c])
            tickets.append(
                timeline.schedule_collective(
                    link.transfer_time(plan.rs_hop_bytes[c][h]),
                    name=f"fused:rs{h}[{c}]",
                )
            )
    if world == 1:
        charge("encode", plan.pre_encode[0])
    drain_upto = [0] * len(chunks)
    if hops:
        for c in range(len(chunks)):
            for h in range(hops):
                tickets.append(
                    timeline.schedule_collective(
                        link.transfer_time(plan.ag_hop_bytes[c][h]),
                        name=f"fused:ag{h}[{c}]",
                    )
                )
            drain_upto[c] = len(tickets)
    i = 0
    for upto, lb in zip(drain_upto, plan.final_decode):
        for ticket in tickets[i:upto]:
            timeline.complete(ticket)
        i = upto
        charge("decode", lb)
    for ticket in tickets[i:]:
        timeline.complete(ticket)
    return timeline.elapsed_since(start)
