"""Ablation: per-tensor vs fused dense-gradient allreduce.

Section V-B attributes the char LM's weak compression gains to per-tensor
overhead across its >20 tensors.  The gradient synchronizer fuses each
maximal run of consecutive dense parameters into one collective, so the
ring's latency hops (and the FP16 casts' per-call overhead) are paid once
per run instead of once per tensor.  This bench measures the modeled time
of the char LM's dense gradients exchanged per tensor (one
``comm.allreduce`` each) against the synchronizer's one fused run, on the
paper's fabric.

Set ``REPRO_BENCH_FAST=1`` for the CI smoke mode: the inventory's
hidden size shrinks 8x so all ranks' tensors fit a small box; both
gates and the FP16 correctness check still run.
"""

import os
import resource

import numpy as np

from repro.cluster import Communicator
from repro.core import Fp16Codec, GradientSynchronizer, WirePolicy
from repro.nn import Module, Parameter
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


class Inventory(Module):
    """One replica: the inventory as dense parameters ``t0`` .. ``t23``."""

    def __init__(self, weights):
        super().__init__()
        for i, w in enumerate(weights):
            setattr(self, f"t{i}", Parameter(w))


def make_tensors(seed=0):
    rng = np.random.default_rng(seed)
    return [
        [rng.standard_normal(s).astype(np.float32) * 1e-3 for s in TENSOR_SHAPES]
        for _ in range(WORLD)
    ]


def fused_sync(tensors, wire=None):
    """The synchronizer's fused run over replicas holding ``tensors``."""
    # One shared set of weights, as the trainer binds: only grads differ.
    weights = [np.zeros(s, np.float32) for s in TENSOR_SHAPES]
    replicas = [Inventory(weights) for _ in range(WORLD)]
    for replica, grads in zip(replicas, tensors):
        for p, g in zip(replica.parameters(), grads):
            p.grad = g
    comm = Communicator(WORLD, track_memory=False)
    with comm.timeline.scope("sync"):
        GradientSynchronizer(comm, wire=wire).sync_replicas(replicas)
    return comm, replicas[0]


def sweep():
    tensors = make_tensors()
    c = Communicator(WORLD, track_memory=False)
    for i in range(len(TENSOR_SHAPES)):
        c.allreduce([tensors[r][i] for r in range(WORLD)], tag=f"t{i}")
    fused, _ = fused_sync(tensors)
    rows = [
        [name, len(comm.ledger.events), f"{comm.ledger.total_time_s * 1e3:.1f}"]
        for name, comm in (("per-tensor", c), ("fused run", fused))
    ]
    return rows, tensors


def test_ablation_bucketing(benchmark, report):
    rows, tensors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["strategy", "collectives", "modeled time (ms)"],
        rows,
        title=f"Char-LM dense gradients ({len(TENSOR_SHAPES)} tensors) "
        f"allreduced across {WORLD} GPUs",
    )

    # Correctness: the fused FP16 run equals the per-tensor sum within
    # codec tolerance (the synchronizer averages; x WORLD is exact).
    _, synced = fused_sync(
        tensors, wire=WirePolicy(value_codec=Fp16Codec(1024.0))
    )
    expected = sum(t[0] for t in tensors)
    np.testing.assert_allclose(synced.t0.grad * WORLD, expected, atol=2e-3)

    report("ablation_bucketing", table)
    per_tensor_ms, fused_ms = float(rows[0][2]), float(rows[1][2])
    # Fusing must reduce both collective count and modeled time.
    assert rows[1][1] < rows[0][1]
    assert fused_ms <= per_tensor_ms
    if FAST:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kib < FAST_PEAK_RSS_KIB, f"peak RSS {peak_kib} KiB"
