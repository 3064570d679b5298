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

from ..nn.parameter import Parameter

__all__ = ["SGD"]


class SGD:
    """Vanilla SGD: ``w -= lr * g``, unclipped as in the paper.

    Parameters
    ----------
    params:
        Parameters to update (shared ``Parameter`` objects).
    lr:
        Learning rate; mutable between steps (schedules set it).
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
        momentum: float = 0.0,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._velocity = (
            [np.zeros_like(p.data) for p in self.params] if momentum else None
        )

    def state_dict(self) -> dict:
        """Hyper-parameters plus momentum buffers when enabled."""
        state: dict = {"lr": self.lr, "momentum": self.momentum}
        if self._velocity is not None:
            for i, v in enumerate(self._velocity):
                state[f"velocity{i}"] = v.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.momentum = float(state.get("momentum", 0.0))
        if self.momentum and self._velocity is not None:
            for i in range(len(self.params)):
                self._velocity[i] = state[f"velocity{i}"].copy()

    def step(self) -> None:
        """Apply one update from the accumulated gradients, then clear them."""
        for i, p in enumerate(self.params):
            if p.grad is not None:
                if self._velocity is not None:
                    v = self._velocity[i]
                    v *= self.momentum
                    v += p.grad
                    p.data -= self.lr * v
                else:
                    p.data -= self.lr * p.grad
            merged = p.merged_sparse_grad()
            if merged is not None:
                rows, values = merged.indices, merged.values
                if self._velocity is not None:
                    v = self._velocity[i]
                    v[rows] = self.momentum * v[rows] + values
                    # Unique rows: plain fancy-index subtract (coalesce()
                    # guarantees no duplicates).
                    p.data[rows] -= self.lr * v[rows]
                else:
                    p.data[rows] -= self.lr * values
            p.zero_grad()
