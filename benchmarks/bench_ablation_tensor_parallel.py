"""Ablation: uniqueness exchange vs vocab-sharded tensor parallelism.

The paper's uniqueness technique keeps the output embedding replicated
and dedupes its gradient exchange; Megatron-style tensor parallelism
shards the vocabulary over ``t`` model ranks instead, paying a logit
all-reduce per step while cutting the data-axis gradient exchange to
per-shard row ranges across ``d = G/t`` replicas.  This bench sweeps
the world size at a fixed global batch and measures actual per-rank
wire bytes for both:

* **flat unique** — ``G`` data-parallel ranks running the paper's
  index-allgather + value-allreduce (:class:`UniqueExchange`);
* **mesh sharded** — a ``(1, t, G/t)`` hybrid mesh running the same
  :class:`UniqueExchange` on its data axis (vocab split into ``t``
  ranges by :func:`shard_sparse`, each range exchanged over its data
  subgroup) plus the tensor-axis logit all-reduce of the vocab-parallel
  sampled softmax.

The flat exchange's allgather grows with the *world* (every rank
contributes its token indices to everyone), while the mesh exchange
gathers per-range uniques over the ``t``-times-smaller data axis — so
tensor parallelism must win on wire volume at scale, which is the gate.
"""

import os

import numpy as np

from repro.cluster import Communicator, hybrid_mesh
from repro.core import UniqueExchange
from repro.core.mesh_exchange import shard_sparse
from repro.nn import SparseGrad
from repro.report import format_table

VOCAB, DIM = 8192, 64
TOKENS_PER_RANK = 128          # K: sparse rows contributed per GPU
SAMPLES = 64                   # sampled-softmax candidates per step
TENSOR = 8                     # t: vocab shards on the mesh arm
WORLDS = (32, 128) if os.environ.get("REPRO_BENCH_FAST") else (32, 128, 512)


def rank_grads(world, seed=0):
    rng = np.random.default_rng(seed)
    return [
        SparseGrad(
            indices=rng.integers(0, VOCAB, TOKENS_PER_RANK),
            values=rng.standard_normal(
                (TOKENS_PER_RANK, DIM)
            ).astype(np.float32),
        )
        for _ in range(world)
    ]


def flat_wire_bytes(world, grads):
    c = Communicator(world, track_memory=False)
    UniqueExchange().exchange(c, grads)
    return c.ledger.total_wire_bytes_per_rank


def mesh_wire_bytes(world, grads):
    mc = Communicator(
        world,
        track_memory=False,
        mesh=hybrid_mesh(f"pipe=1,tensor={TENSOR},data=", world),
    )
    d = world // TENSOR
    # Same global token multiset: each data replica carries the rows of
    # the t model ranks that form it in the flat arm.
    replica_grads = [
        SparseGrad(
            indices=np.concatenate(
                [grads[k * TENSOR + j].indices for j in range(TENSOR)]
            ),
            values=np.concatenate(
                [grads[k * TENSOR + j].values for j in range(TENSOR)]
            ),
        )
        for k in range(d)
    ]
    data = mc.axis("data")
    UniqueExchange().exchange(
        data, shard_sparse(replica_grads, data.groups, VOCAB), tag="embedding"
    )
    # The price of vocab sharding: every step all-reduces the sampled
    # logits over the tensor axis (batch of t*K positions, 1+S columns).
    logits = [
        np.zeros((TENSOR * TOKENS_PER_RANK, 1 + SAMPLES), dtype=np.float32)
        for _ in range(world)
    ]
    mc.axis("tensor").allreduce(logits, tag="vocab_softmax.logits")
    return mc.ledger.total_wire_bytes_per_rank


def sweep():
    rows = []
    for world in WORLDS:
        grads = rank_grads(world, seed=world)
        flat_b = flat_wire_bytes(world, grads)
        mesh_b = mesh_wire_bytes(world, grads)
        rows.append([world, flat_b, mesh_b, flat_b / mesh_b])
    return rows


def test_ablation_tensor_parallel(benchmark, report, bench_metrics):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["GPUs", "flat unique (B/rank)", f"mesh t={TENSOR} (B/rank)",
         "flat/mesh"],
        [[r[0], r[1], r[2], f"{r[3]:.2f}"] for r in rows],
        title=(
            f"Output-embedding exchange, vocab {VOCAB}, "
            f"{TOKENS_PER_RANK} rows/GPU: uniqueness vs tensor parallel"
        ),
    )
    report("ablation_tensor_parallel", table)

    ratio = bench_metrics.gauge(
        "bench_tensor_parallel_wire_ratio",
        "flat-unique / mesh-sharded per-rank wire bytes, by world size",
        labelnames=("gpus",),
    )
    for world, _, _, r in rows:
        ratio.set(r, gpus=str(world))

    # Gate 1: the flat exchange's per-rank wire volume grows with the
    # world; the sharded exchange grows strictly slower.
    flat_growth = rows[-1][1] / rows[0][1]
    mesh_growth = rows[-1][2] / rows[0][2]
    assert flat_growth > mesh_growth
    # Gate 2: at the largest swept world, vocab sharding wins outright.
    assert rows[-1][3] > 1.0
