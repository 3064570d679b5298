"""Micro-benchmarks of the simulated collectives (real wall-clock via
pytest-benchmark) plus the ring vs recursive-doubling cost-model
crossover study called out in DESIGN.md's ablation list.
"""

import numpy as np

from repro.cluster import (
    Communicator,
    INFINIBAND_FDR,
    recursive_doubling_allreduce_time,
    ring_allreduce_time,
)
from repro.report import format_table

WORLD = 8
SHAPE = (512, 256)


def make_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(SHAPE).astype(np.float32) for _ in range(WORLD)]


def test_bench_allreduce(benchmark):
    comm = Communicator(WORLD, track_memory=False)
    arrays = make_arrays()
    result = benchmark(lambda: comm.allreduce(arrays))
    np.testing.assert_allclose(result[0], sum(arrays), rtol=1e-4)


def test_bench_allgather(benchmark):
    comm = Communicator(WORLD, track_memory=False)
    arrays = make_arrays(1)
    result = benchmark(lambda: comm.allgather(arrays))
    assert result[0].shape == (WORLD * SHAPE[0], SHAPE[1])


def test_bench_reduce_scatter(benchmark):
    comm = Communicator(WORLD, track_memory=False)
    arrays = make_arrays(2)
    result = benchmark(lambda: comm.reduce_scatter(arrays))
    assert result[0].shape == (SHAPE[0] // WORLD, SHAPE[1])


def test_ring_vs_recursive_doubling_crossover(benchmark, report):
    """Cost-model ablation: recursive doubling wins for small messages
    (latency-bound), the ring wins for the paper's large gradients."""

    def crossover_table():
        rows = []
        for nbytes in (1_000, 10_000, 100_000, 1_000_000, 100_000_000):
            ring = ring_allreduce_time(64, nbytes, INFINIBAND_FDR)
            rd = recursive_doubling_allreduce_time(64, nbytes, INFINIBAND_FDR)
            rows.append(
                [nbytes, f"{ring * 1e6:.1f}", f"{rd * 1e6:.1f}",
                 "ring" if ring < rd else "recursive-doubling"]
            )
        return rows

    rows = benchmark.pedantic(crossover_table, rounds=1, iterations=1)
    table = format_table(
        ["message bytes", "ring (us)", "recursive-doubling (us)", "winner"],
        rows,
        title="Allreduce algorithm crossover at 64 GPUs on FDR Infiniband",
    )
    report("micro_collectives_crossover", table)
    # Large messages (the embedding-gradient regime) must favour the ring.
    assert rows[-1][-1] == "ring"
