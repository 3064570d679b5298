"""Fully-connected (projection) layer.

Used for the word LM's 2048 -> 512 LSTM projection and as a generic
building block.  Operates on inputs of any leading shape ``(..., in_dim)``;
the first axis may be declared a replica axis (shared weight broadcast
over ``R`` replicas' activations, one weight gradient per replica).
"""

from __future__ import annotations

import numpy as np

from . import init
from .dtypes import DTYPE
from .module import Module
from .parameter import Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W + b`` with Xavier-uniform initialization."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        bias: bool = True,
        dtype: np.dtype = DTYPE,
    ):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(
            init.xavier_uniform((in_dim, out_dim), rng, dtype), name="linear.weight"
        )
        self.bias: Parameter | None
        if bias:
            self.bias = Parameter(init.zeros((out_dim,), dtype), name="linear.bias")
        else:
            object.__setattr__(self, "bias", None)

    def forward(
        self, x: np.ndarray, stacked: bool = False
    ) -> tuple[np.ndarray, dict]:
        """``stacked`` declares the leading axis of ``x`` a replica axis:
        backward then emits one weight gradient per replica."""
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"input dim {x.shape[-1]} != {self.in_dim}")
        y = x @ self.weight.data
        if self.bias is not None:
            y += self.bias.data
        return y, {"x": x, "stacked": stacked}

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        """Accumulate weight/bias grads; return gradient w.r.t. input."""
        x = cache["x"]
        if grad_out.shape != x.shape[:-1] + (self.out_dim,):
            raise ValueError(f"bad grad shape {grad_out.shape}")
        lead = x.shape[:1] if cache["stacked"] else ()
        rows = x.reshape(lead + (-1, self.in_dim))
        grad_rows = grad_out.reshape(lead + (-1, self.out_dim))
        self.weight.accumulate_grad(np.matmul(rows.swapaxes(-1, -2), grad_rows))
        if self.bias is not None:
            self.bias.accumulate_grad(grad_rows.sum(axis=-2))
        return np.matmul(grad_rows, self.weight.data.T).reshape(x.shape)
