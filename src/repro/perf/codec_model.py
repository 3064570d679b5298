"""Throughput calibration and pipelined-time models for wire codecs.

Companion to :mod:`repro.core.wire.cost`, which holds the primitive
crossover inequality the adaptive selector needs *below* the exchange
layer.  This module adds the perf-layer pieces:

* :func:`calibrate_codec_throughput` — measure a codec's real
  encode/decode bytes-per-second on this host (the deterministic
  :data:`~repro.core.wire.cost.DEFAULT_CODEC_THROUGHPUTS` model the
  simulated accelerator instead, and are what simulated timelines use);
* :func:`pipelined_transfer_time` — the **analytic makespan** of the
  chunked schedule :func:`repro.core.wire.transfer.iencoded_allgather`
  actually executes, derived from the Timeline contention rules;
* :func:`timeline_pipelined_transfer` — the same schedule *executed* on
  a fresh :class:`~repro.cluster.timeline.Timeline`, as the overlap
  module does for bucketed allreduce.  The benches gate the two against
  each other within 5%, the same regression guard style as
  ``bench_ablation_overlap``;
* :func:`fused_reduce_time` / :func:`timeline_fused_reduce` — the same
  analytic-vs-executed pair for the **fused compressed reductions** of
  :mod:`repro.core.wire.fused`, driven by a shared
  :class:`~repro.core.wire.fused.FusedReducePlan` so all three views
  (live collective, closed recurrence, Timeline replay) agree on every
  hop byte count; :func:`uniform_fused_plan` builds such plans from
  uniform byte arithmetic when no real payload exists (bench sweeps).

Pipelined schedule (n chunks, per-chunk encode ``e``, transfer ``t``,
decode ``d``)::

    compute:  e0 e1 e2 ...            d0 d1 d2 ...
    comm:        [t0]  [t1]  [t2] ...

Chunk ``i+1`` encodes while chunk ``i`` is on the wire; decode drains
after each completion.  For uniform transmit-bound chunks (``t >= e``)
the makespan closes to ``e + t + max((n-1)*max(e, t) + d, n*d)``; the
implementation runs the exact recurrence so ragged last chunks and
encode-bound regimes are handled too.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ..cluster.collectives import ring_allgather_time
from ..cluster.interconnect import LinkSpec
from ..cluster.timeline import Timeline
from ..core.wire.cost import (
    CodecThroughput,
    throughput_from_metrics,
)
from ..core.wire.fused import FusedReducePlan

__all__ = [
    "CodecThroughput",
    "calibrate_codec_throughput",
    "fused_reduce_time",
    "pipelined_transfer_time",
    "throughput_from_metrics",
    "timeline_fused_reduce",
    "timeline_pipelined_transfer",
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


def _chunk_plan(
    logical_bytes: int,
    chunk_bytes: int | None,
    encoded_ratio: float,
    encoded_chunk_bytes: Sequence[int] | None,
) -> tuple[list[int], list[int]]:
    """Split a contribution into (logical, encoded) per-chunk byte lists."""
    if logical_bytes <= 0:
        raise ValueError("logical_bytes must be positive")
    if encoded_ratio <= 0:
        raise ValueError("encoded_ratio must be positive")
    if chunk_bytes is None or chunk_bytes >= logical_bytes:
        logical = [logical_bytes]
    else:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        logical = [chunk_bytes] * (logical_bytes // chunk_bytes)
        if logical_bytes % chunk_bytes:
            logical.append(logical_bytes % chunk_bytes)
    if encoded_chunk_bytes is not None:
        encoded = [int(b) for b in encoded_chunk_bytes]
        if len(encoded) != len(logical):
            raise ValueError(
                f"encoded_chunk_bytes has {len(encoded)} entries for "
                f"{len(logical)} chunks"
            )
    else:
        encoded = [max(1, round(b / encoded_ratio)) for b in logical]
    return logical, encoded


def pipelined_transfer_time(
    logical_bytes: int,
    world: int,
    link: LinkSpec,
    throughput: CodecThroughput,
    chunk_bytes: int | None = None,
    encoded_ratio: float = 1.0,
    encoded_chunk_bytes: Sequence[int] | None = None,
) -> float:
    """Analytic makespan of the chunked encode/transmit/decode pipeline.

    Replays, in closed arithmetic, exactly the schedule
    :func:`repro.core.wire.transfer.iencoded_allgather` puts on the
    Timeline: every rank encodes chunk ``c`` on its compute stream, the
    chunk's allgather starts no earlier than that compute position and
    no earlier than the link frees (chunks serialize in issue order),
    and at wait each chunk is completed then decoded.  Ranks are
    uniform, so one rank's clocks stand for all.

    Parameters
    ----------
    logical_bytes:
        Per-rank pre-codec contribution.
    chunk_bytes:
        Pipeline granularity; None (or >= ``logical_bytes``) degenerates
        to the serial schedule for a single chunk
        (:func:`repro.core.wire.cost.compressed_transfer_seconds`).
    encoded_ratio:
        Compression factor ``logical / encoded`` (>= 1 when the codec
        shrinks), applied per chunk when ``encoded_chunk_bytes`` is not
        given.
    encoded_chunk_bytes:
        Exact per-chunk encoded sizes (e.g. measured frame sizes), for
        validating against a data-dependent run.

    Notes
    -----
    Calls without ``encoded_chunk_bytes`` (the common, fully-hashable
    key) are memoized; a data-dependent per-chunk size list bypasses the
    cache since sequences are unhashable and rarely repeat anyway.
    """
    if encoded_chunk_bytes is None:
        return _pipelined_transfer_time_cached(
            logical_bytes, world, link, throughput, chunk_bytes, encoded_ratio
        )
    return _pipelined_transfer_time_impl(
        logical_bytes, world, link, throughput, chunk_bytes, encoded_ratio,
        encoded_chunk_bytes,
    )


@lru_cache(maxsize=4096)
def _pipelined_transfer_time_cached(
    logical_bytes: int,
    world: int,
    link: LinkSpec,
    throughput: CodecThroughput,
    chunk_bytes: int | None,
    encoded_ratio: float,
) -> float:
    return _pipelined_transfer_time_impl(
        logical_bytes, world, link, throughput, chunk_bytes, encoded_ratio, None
    )


def _pipelined_transfer_time_impl(
    logical_bytes: int,
    world: int,
    link: LinkSpec,
    throughput: CodecThroughput,
    chunk_bytes: int | None,
    encoded_ratio: float,
    encoded_chunk_bytes: Sequence[int] | None,
) -> float:
    logical, encoded = _chunk_plan(
        logical_bytes, chunk_bytes, encoded_ratio, encoded_chunk_bytes
    )
    compute = 0.0  # the (uniform) per-rank compute clock
    link_free = 0.0
    ends: list[float] = []
    for lb, eb in zip(logical, encoded):
        compute += throughput.encode_seconds(lb)
        start = max(compute, link_free)
        link_free = start + ring_allgather_time(world, eb, link)
        ends.append(link_free)
    for lb, end in zip(logical, ends):
        compute = max(compute, end)  # wait() on the chunk's ticket
        compute += throughput.decode_seconds(world * lb)
    return compute


def timeline_pipelined_transfer(
    logical_bytes: int,
    world: int,
    link: LinkSpec,
    throughput: CodecThroughput,
    chunk_bytes: int | None = None,
    encoded_ratio: float = 1.0,
    encoded_chunk_bytes: Sequence[int] | None = None,
    timeline: Timeline | None = None,
) -> float:
    """Measure the pipelined transfer by *executing* its schedule.

    Plays the same issue-all-then-drain chunk schedule as
    :func:`repro.core.wire.transfer.iencoded_allgather` onto a real
    :class:`~repro.cluster.timeline.Timeline` and returns the measured
    makespan.  For an unscaled timeline this equals
    :func:`pipelined_transfer_time` exactly — the cross-check the
    wire-compression bench gates at 5%, mirroring
    :func:`repro.perf.overlap.timeline_overlapped_time`.
    """
    logical, encoded = _chunk_plan(
        logical_bytes, chunk_bytes, encoded_ratio, encoded_chunk_bytes
    )
    if timeline is None:
        timeline = Timeline(world)
    elif timeline.world_size != world:
        raise ValueError("timeline world size != world")
    start = timeline.mark()
    tickets = []
    for c, (lb, eb) in enumerate(zip(logical, encoded)):
        timeline.record_compute_all(
            throughput.encode_seconds(lb), name="codec:encode"
        )
        tickets.append(
            timeline.schedule_collective(
                ring_allgather_time(world, eb, link), name=f"chunk{c}"
            )
        )
    for lb, ticket in zip(logical, tickets):
        timeline.complete(ticket)
        timeline.record_compute_all(
            throughput.decode_seconds(world * lb), name="codec:decode"
        )
    return timeline.elapsed_since(start)


def uniform_fused_plan(
    logical_bytes: int,
    world: int,
    *,
    encoded_ratio: float = 1.0,
    chunk_bytes: int | None = None,
    hop_recode: bool = False,
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
        chg = logical_bytes if charge_codec and not hop_recode else 0
        return FusedReducePlan(
            world=1, hop_recode=False,
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
    rs_hop = tuple(tuple(eb for _ in range(hops)) for eb in enc)
    if not charge_codec:
        pre = tuple(0 for _ in chunks)
        final = tuple(0 for _ in chunks)
        recode = False
    elif hop_recode:
        pre = tuple(chunks)
        final = tuple((world - 1) * lb for lb in chunks)
        recode = True
    else:
        pre = tuple(world * lb for lb in chunks)
        final = pre
        recode = False
    return FusedReducePlan(
        world=world, hop_recode=recode,
        chunk_logical=tuple(chunks), pre_encode=pre,
        rs_hop_bytes=rs_hop, ag_hop_bytes=rs_hop, final_decode=final,
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
    Timeline for ``plan`` — same hop-major issue order, same eager
    recode waits, same drain cuts — so for an unscaled timeline the
    result equals :func:`timeline_fused_reduce` *exactly*, not merely
    within tolerance (the wire benches gate at ``1e-9`` relative).
    Ranks are uniform: one compute clock stands for all, and a
    collective's start is ``max(compute, link_free)`` (the Timeline's
    extra ``_max_comm`` term never exceeds ``link_free``).

    ``throughput=None`` evaluates the schedule with codec charges
    suppressed, matching ``charge_compute=False`` (or ``codec=None``)
    on the live path.  Memoized: plans, links and throughputs are all
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
    rs_end = [[0.0] * hops for _ in chunks]
    for h in range(hops):
        for c, lb in enumerate(chunks):
            if h == 0:
                compute += enc_s(plan.pre_encode[c])
            elif plan.hop_recode:
                compute = max(compute, rs_end[c][h - 1])
                compute += dec_s(lb)
                compute += enc_s(lb)
            start = max(compute, link_free)
            link_free = start + link.transfer_time(plan.rs_hop_bytes[c][h])
            rs_end[c][h] = link_free
    if world == 1:
        compute += enc_s(plan.pre_encode[0])
    last_end = [0.0] * len(chunks)
    if hops:
        for c, lb in enumerate(chunks):
            if plan.hop_recode:
                compute = max(compute, rs_end[c][hops - 1])
                compute += dec_s(lb)
                compute += enc_s(lb)
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
    with the same issue order, eager recode completions and drain cuts
    as the live collectives, and returns the measured makespan — the
    executed half of the :func:`fused_reduce_time` cross-check.
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
    completed: set[int] = set()

    def complete(i: int) -> None:
        if i in completed:
            return
        timeline.complete(tickets[i])
        completed.add(i)

    rs_idx = [[0] * hops for _ in chunks]
    for h in range(hops):
        for c, lb in enumerate(chunks):
            if h == 0:
                charge("encode", plan.pre_encode[c])
            elif plan.hop_recode:
                complete(rs_idx[c][h - 1])
                charge("decode", lb)
                charge("encode", lb)
            tickets.append(
                timeline.schedule_collective(
                    link.transfer_time(plan.rs_hop_bytes[c][h]),
                    name=f"fused:rs{h}[{c}]",
                )
            )
            rs_idx[c][h] = len(tickets) - 1
    if world == 1:
        charge("encode", plan.pre_encode[0])
    drain_upto = [0] * len(chunks)
    if hops:
        for c, lb in enumerate(chunks):
            if plan.hop_recode:
                complete(rs_idx[c][hops - 1])
                charge("decode", lb)
                charge("encode", lb)
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
        while i < upto:
            complete(i)
            i += 1
        if throughput is not None and lb:
            secs = throughput.decode_seconds(lb)
            timeline.record_compute_all(secs, name="codec:decode")
    while i < len(tickets):
        complete(i)
        i += 1
    return timeline.elapsed_since(start)
