"""Weight initialization schemes.

Every initializer takes an explicit :class:`numpy.random.Generator` —
the SPMD simulator creates each rank's model replica from the *same*
seed so that replicas start synchronized, a precondition the
replica-consistency invariant tests rely on.
"""

from __future__ import annotations

import numpy as np

from .dtypes import DTYPE

__all__ = ["uniform", "xavier_uniform", "orthogonal", "zeros"]


def uniform(
    shape: tuple[int, ...], scale: float, rng: np.random.Generator,
    dtype: np.dtype = DTYPE,
) -> np.ndarray:
    """U(-scale, scale) initialization (TF 1.x default for embeddings)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return rng.uniform(-scale, scale, size=shape).astype(dtype, copy=False)


def xavier_uniform(
    shape: tuple[int, int], rng: np.random.Generator,
    dtype: np.dtype = DTYPE,
) -> np.ndarray:
    """Glorot/Xavier uniform for 2-D weights: U(±sqrt(6/(fan_in+fan_out)))."""
    if len(shape) != 2:
        raise ValueError("xavier_uniform expects a 2-D shape")
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype, copy=False)


def orthogonal(
    shape: tuple[int, int], rng: np.random.Generator,
    gain: float = 1.0, dtype: np.dtype = DTYPE,
) -> np.ndarray:
    """Orthogonal initialization — standard for recurrent weight matrices."""
    if len(shape) != 2:
        raise ValueError("orthogonal expects a 2-D shape")
    rows, cols = shape
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))  # make the decomposition unique
    if rows < cols:
        q = q.T
    return (gain * q[:rows, :cols]).astype(dtype, copy=False)


def zeros(shape: tuple[int, ...], dtype: np.dtype = DTYPE) -> np.ndarray:
    """Zero initialization (biases)."""
    return np.zeros(shape, dtype=dtype)
