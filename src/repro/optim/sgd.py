"""Stochastic gradient descent with sparse embedding updates.

The word LM (Section IV-B) trains with plain SGD.  Dense gradients
update in place; sparse (embedding) gradients are applied **coalesced**
— duplicate rows are pre-summed, so the scatter touches each embedding
row exactly once.  That is the serialization-free update the paper's
step 7 highlights: with unique indices, no two lanes write the same row.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..nn.dtypes import ACC_DTYPE
from ..nn.parameter import Parameter

__all__ = ["SGD"]


class SGD:
    """Vanilla SGD: ``w -= lr * g`` (optionally with gradient clipping).

    Parameters
    ----------
    params:
        Parameters to update (shared ``Parameter`` objects).
    lr:
        Learning rate; mutable between steps (schedules set it).
    clip_norm:
        Optional global-norm gradient clip applied across all dense and
        sparse gradients — standard for RNN LMs.
    momentum:
        Optional classical momentum (0 disables, the paper's setting).
        Momentum buffers are dense; with sparse embedding gradients the
        buffer update touches only the step's rows (lazy momentum, the
        sparse-friendly convention).
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        clip_norm: float | None = None,
        momentum: float = 0.0,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        if lr <= 0:
            raise ValueError("lr must be positive")
        if clip_norm is not None and clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.clip_norm = clip_norm
        self.momentum = momentum
        self._velocity = (
            [np.zeros_like(p.data) for p in self.params] if momentum else None
        )

    def state_dict(self) -> dict:
        """Hyper-parameters plus momentum buffers when enabled."""
        state: dict = {
            "lr": self.lr,
            "clip_norm": self.clip_norm,
            "momentum": self.momentum,
        }
        if self._velocity is not None:
            for i, v in enumerate(self._velocity):
                state[f"velocity{i}"] = v.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        clip = state.get("clip_norm")
        self.clip_norm = None if clip is None else float(clip)
        self.momentum = float(state.get("momentum", 0.0))
        if self.momentum and self._velocity is not None:
            for i in range(len(self.params)):
                self._velocity[i] = state[f"velocity{i}"].copy()

    def _global_grad_norm(self) -> float:
        sq = 0.0
        for p in self.params:
            if p.grad is not None:
                sq += float((p.grad.astype(ACC_DTYPE) ** 2).sum())
            merged = p.merged_sparse_grad()
            if merged is not None:
                sq += float((merged.values.astype(ACC_DTYPE) ** 2).sum())
        return float(np.sqrt(sq))

    def step(self) -> None:
        """Apply one update from the accumulated gradients, then clear them."""
        scale = 1.0
        if self.clip_norm is not None:
            norm = self._global_grad_norm()
            if norm > self.clip_norm:
                scale = self.clip_norm / (norm + 1e-12)
        for i, p in enumerate(self.params):
            if p.grad is not None:
                if self._velocity is not None:
                    v = self._velocity[i]
                    v *= self.momentum
                    v += scale * p.grad
                    p.data -= self.lr * v
                else:
                    p.data -= self.lr * scale * p.grad
            merged = p.merged_sparse_grad()
            if merged is not None:
                rows, values = merged.indices, merged.values
                if self._velocity is not None:
                    v = self._velocity[i]
                    v[rows] = self.momentum * v[rows] + scale * values
                    # Unique rows: plain fancy-index subtract (coalesce()
                    # guarantees no duplicates).
                    p.data[rows] -= self.lr * v[rows]
                else:
                    p.data[rows] -= self.lr * scale * values
            p.zero_grad()
