"""repro — reproduction of "Language Modeling at Scale" (Patwary et al.,
IPPS 2019).

Zipf-aware scalable data-parallel language-model training, built on a
simulated multi-GPU cluster:

* :mod:`repro.cluster` — devices with byte-exact memory accounting, a
  two-tier interconnect, MPI-style collectives with cost models;
* :mod:`repro.nn` — pure-numpy NN stack (embeddings with sparse
  gradients, LSTM, RHN, full & sampled softmax);
* :mod:`repro.optim` — sparse-aware SGD/Adam, LR scaling, loss scalers;
* :mod:`repro.data` — Zipf–Mandelbrot synthetic corpora and the
  type/token statistics of Figure 1;
* :mod:`repro.core` — the paper's contribution: uniqueness, seeding and
  compression;
* :mod:`repro.train` — word/char LM assemblies and the SPMD trainer;
* :mod:`repro.perf` — the analytic model behind Tables III-V;
* :mod:`repro.analysis` — correctness tooling: the REPRO lint rules and
  the runtime collective/compression sanitizer;
* :mod:`repro.telemetry` — the unified observability layer: metrics
  registry, one exact JSON export, merged multi-generation chrome
  traces, and per-step JSONL sessions;
* :mod:`repro.serve` — the inference serving path: continuous batching,
  per-request state caching, replica-sharded embedding lookup, and
  Zipfian/bursty traffic over the simulated cluster;
* :mod:`repro.errors` — ``ReproError``, the root of every exception.
"""

from . import (
    analysis,
    cluster,
    core,
    data,
    nn,
    optim,
    perf,
    report,
    serve,
    sim,
    telemetry,
    train,
)

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "cluster",
    "core",
    "data",
    "nn",
    "optim",
    "perf",
    "report",
    "serve",
    "sim",
    "telemetry",
    "train",
    "__version__",
]
