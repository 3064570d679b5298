"""Ablation: per-tensor vs bucketed dense-gradient allreduce.

Section V-B attributes the char LM's weak compression gains to per-tensor
overhead across its >20 tensors.  Bucketing fuses them: latency (and
per-bucket casts) are paid once per bucket.  This bench measures the
modeled step time of the char LM's dense gradients exchanged per-tensor
vs bucketed at several bucket sizes, on the paper's 64-GPU fabric.

Set ``REPRO_BENCH_FAST=1`` for the CI smoke mode: the inventory's
hidden size shrinks 8x so all ranks' tensors fit a small box; both
gates and the FP16 correctness check still run.
"""

import os
import resource

import numpy as np

from repro.cluster import Communicator
from repro.core.bucketing import bucketed_allreduce, plan_buckets
from repro.core.compression import Fp16Codec
from repro.report import format_table

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
#: The char LM's RHN hidden size; the smoke mode's 224 keeps the 8 ranks'
#: copies of the inventory at ~35 MB instead of ~2 GB.
HIDDEN = 224 if FAST else 1792

#: A char-LM-like tensor inventory: 10 RHN micro-layers x (recurrent
#: weight + bias) plus embedding/softmax — 24 tensors, ~65M params at
#: full size.
TENSOR_SHAPES = (
    [(HIDDEN, 2 * HIDDEN)] * 10          # recurrent weights
    + [(2 * HIDDEN,)] * 10               # biases
    + [(128, 2 * HIDDEN), (98, 128), (98, HIDDEN), (98,)]
)
WORLD = 8
#: Smoke-mode ceiling on the process's peak RSS (``ru_maxrss``, KiB).
FAST_PEAK_RSS_KIB = 2 << 20


def make_tensors(seed=0):
    rng = np.random.default_rng(seed)
    return [
        [rng.standard_normal(s).astype(np.float32) * 1e-3 for s in TENSOR_SHAPES]
        for _ in range(WORLD)
    ]


def sweep():
    tensors = make_tensors()
    rows = []

    # Per-tensor baseline.
    c = Communicator(WORLD, track_memory=False)
    for i in range(len(TENSOR_SHAPES)):
        c.allreduce([tensors[r][i] for r in range(WORLD)], tag=f"t{i}")
    rows.append(["per-tensor", len(c.ledger.events), f"{c.ledger.total_time_s * 1e3:.1f}"])

    for bucket_mb in (1, 4, 16, 64, 1024):
        c = Communicator(WORLD, track_memory=False)
        bucketed_allreduce(c, tensors, bucket_bytes=bucket_mb * 1024 * 1024)
        rows.append(
            [f"bucketed {bucket_mb} MB", len(c.ledger.events),
             f"{c.ledger.total_time_s * 1e3:.1f}"]
        )
    return rows, tensors


def test_ablation_bucketing(benchmark, report):
    rows, tensors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["strategy", "collectives", "modeled time (ms)"],
        rows,
        title=f"Char-LM dense gradients ({len(TENSOR_SHAPES)} tensors) "
        f"allreduced across {WORLD} GPUs",
    )

    # Correctness: bucketed+fp16 equals per-tensor within codec tolerance.
    c = Communicator(WORLD, track_memory=False)
    out = bucketed_allreduce(
        c, tensors, bucket_bytes=16 * 1024 * 1024, codec=Fp16Codec(1024.0)
    )
    expected = sum(t[0] for t in tensors)
    np.testing.assert_allclose(out[0][0], expected, atol=2e-3)

    report("ablation_bucketing", table)
    per_tensor_ms = float(rows[0][2])
    best_ms = min(float(r[2]) for r in rows[1:])
    # Fusing must reduce both collective count and modeled time.
    assert rows[1][1] < rows[0][1]
    assert best_ms <= per_tensor_ms
    if FAST:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kib < FAST_PEAK_RSS_KIB, f"peak RSS {peak_kib} KiB"
