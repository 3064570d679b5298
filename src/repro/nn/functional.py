"""Numerically-stable elementwise and softmax primitives (pure numpy).

All functions are vectorized and allocation-conscious per the project's
HPC guidelines: no Python-level loops over batch elements, stable
log-sum-exp forms throughout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "dsigmoid",
    "tanh",
    "dtanh",
    "softmax",
    "log_softmax",
    "cross_entropy_from_logits",
    "replica_blocks",
    "row_matmul",
]


def row_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Batch-invariant matmul: row ``r`` of the result is ``x[r] @ w``.

    BLAS gemm is *not* row-wise bit-identical across batch sizes — the
    blocking/accumulation order of ``(B, H) @ (H, K)`` depends on ``B``,
    so the same input row produces slightly different outputs in
    different batches (observed at ~1e-15 for every ``B > 1``).  That
    breaks any system whose correctness story is "batching is a
    scheduling optimization, not a numerics change" — notably the
    serving engine's continuous-batching differential test, which
    requires token-identical decodes regardless of batch composition.

    This kernel restores the invariant by computing each output row as
    an independent vector-matrix product, making the result a pure
    function of the row's values.  It is one stacked ``(B, 1, H) @
    (H, K)`` matmul: numpy issues one gemv per stacked row on the same
    operands as ``x[r] @ w`` (bitwise; ``tests/nn/test_functional.py``
    keeps the per-row loop as the reference), without a Python loop.
    O(B) small gemv calls instead of one gemm: decode-sized
    (``B <= max_batch``) workloads only.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(
            f"row_matmul expects (B, H) @ (H, K); got {x.shape} @ {w.shape}"
        )
    return np.matmul(x[:, None, :], w)[:, 0, :]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, stable for large |x| (no overflow warnings).

    ``e = exp(-|x|)`` never overflows, and each element still takes its
    sign's branch — ``1 / (1 + e)`` for ``x >= 0``, ``e / (1 + e)``
    otherwise — so the result is bit-identical to evaluating the two
    branches on boolean-masked copies, without the gather/scatter: the
    numerator ``exp(min(x, 0))`` is exactly ``1`` on the first branch
    (±0 included) and exactly ``e`` on the second (NaN keeps x's NaN).
    A float16 input is evaluated in float16 and returned as float64.
    """
    denom = np.negative(x)
    np.minimum(x, denom, out=denom)  # -|x|, and a NaN stays x's own NaN
    np.exp(denom, out=denom)
    denom += 1.0
    out = np.minimum(x, 0)
    np.exp(out, out=out)
    np.divide(out, denom, out=out)
    return out.astype(np.float64) if out.dtype == np.float16 else out


def dsigmoid(y: np.ndarray) -> np.ndarray:
    """Derivative of sigmoid *in terms of its output* ``y = sigmoid(x)``."""
    return y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent (alias kept for API symmetry with sigmoid)."""
    return np.tanh(x)


def dtanh(y: np.ndarray) -> np.ndarray:
    """Derivative of tanh in terms of its output ``y = tanh(x)``."""
    return 1.0 - y * y


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    # Overflowed logits are the dynamic loss scaler's signal: inf - inf
    # is the NaN it skips the step on, not a condition to warn about.
    with np.errstate(invalid="ignore"):
        shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def cross_entropy_from_logits(
    logits: np.ndarray, targets: np.ndarray, out: np.ndarray | None = None
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over rows of ``logits`` and its gradient.

    Parameters
    ----------
    logits:
        ``(n, classes)`` unnormalized scores, or ``(R, n, classes)`` for
        ``R`` stacked replicas (each reduced on its own).
    targets:
        ``(n,)`` / ``(R, n)`` integer class indices.
    out:
        Optional array of ``logits``' shape and dtype to build
        ``dlogits`` in.

    Returns
    -------
    (loss, dlogits):
        ``loss`` is the mean negative log-likelihood in nats (a float;
        an ``(R,)`` array when stacked); ``dlogits`` is
        ``(softmax - onehot) / n`` — the gradient of the *mean* loss, so
        per-token scaling is consistent regardless of batch shape.
    """
    if logits.ndim not in (2, 3):
        raise ValueError("logits must be 2-D (n, classes)")
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits "
            f"{logits.shape}"
        )
    n = logits.shape[-2]
    logp = log_softmax(logits, axis=-1)
    at = targets[..., None]
    loss = -np.take_along_axis(logp, at, axis=-1)[..., 0].mean(axis=-1)
    dlogits = np.exp(logp, out=out)
    np.put_along_axis(
        dlogits, at, np.take_along_axis(dlogits, at, axis=-1) - 1.0, axis=-1
    )
    dlogits /= n
    return (loss if loss.ndim else float(loss)), dlogits


#: Logits one block of stacked replicas may hold in a loss layer.  A
#: ``(R, n, classes)`` temporary that outgrows the cache makes every
#: elementwise pass DRAM-bound, while a single replica's slice stays
#: cache-resident; walking the stack a few replicas at a time keeps the
#: stacked pass on the fast side of that line at any ``R``.  (Measured
#: optimum 256-512 KiB on the reference box; docs/PERFORMANCE.md.)
_BLOCK_BYTES = 512 << 10


def replica_blocks(lead: tuple[int, ...], bytes_per_replica: int) -> list:
    """Index expressions covering a replica stack, a block at a time.

    ``lead`` is ``()`` for an unstacked input — one block, the whole
    array — or ``(R,)``: slices of as many replicas as keep
    ``bytes_per_replica`` each within the block budget.
    """
    if not lead:
        return [...]
    step = max(1, _BLOCK_BYTES // max(1, bytes_per_replica))
    return [slice(lo, lo + step) for lo in range(0, lead[0], step)]

