"""Adam with decoupled weight decay and lazy sparse-row updates.

The character LM (Section IV-B) trains with "Adam with weight decay".
Dense parameters follow standard Adam(W); embedding-style parameters
with sparse gradients use **lazy** moment updates — first and second
moments advance only for the rows a step actually touched (TF/Keras
``LazyAdam`` semantics).  Lazy updates keep per-step cost proportional
to the number of *types* in the batch, consistent with the whole point
of sparse exchange.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..nn.dtypes import ACC_DTYPE
from ..nn.parameter import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam(W) optimizer.

    Parameters
    ----------
    params:
        Parameters to update.
    lr, beta1, beta2, eps:
        Standard Adam hyper-parameters.
    weight_decay:
        Decoupled (AdamW-style) decay coefficient; 0 disables.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("betas must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0
        # Per-row step counters for lazy bias correction on sparse params.
        self._row_t = [
            np.zeros(p.data.shape[0], dtype=np.int64) if p.data.ndim == 2 else None
            for p in self.params
        ]

    def state_dict(self) -> dict:
        """Moments, per-row step counters and the global step counter."""
        state: dict = {"lr": self.lr, "t": self._t}
        for i in range(len(self.params)):
            state[f"m{i}"] = self._m[i].copy()
            state[f"v{i}"] = self._v[i].copy()
            if self._row_t[i] is not None:
                state[f"row_t{i}"] = self._row_t[i].copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self._t = int(state["t"])
        for i in range(len(self.params)):
            m, v = state[f"m{i}"], state[f"v{i}"]
            if m.shape != self._m[i].shape or v.shape != self._v[i].shape:
                raise ValueError(f"optimizer state {i} has the wrong shape")
            self._m[i] = m.copy()
            self._v[i] = v.copy()
            if self._row_t[i] is not None:
                self._row_t[i] = state[f"row_t{i}"].copy()

    def step(self) -> None:
        """Apply one Adam update from accumulated grads, then clear them."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is not None:
                m, v = self._m[i], self._v[i]
                m *= b1
                m += (1 - b1) * p.grad
                v *= b2
                v += (1 - b2) * p.grad**2
                m_hat = m / (1 - b1**self._t)
                v_hat = v / (1 - b2**self._t)
                if self.weight_decay:
                    p.data -= self.lr * self.weight_decay * p.data
                p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

            merged = p.merged_sparse_grad()
            if merged is not None:
                rows, g = merged.indices, merged.values
                m, v = self._m[i], self._v[i]
                row_t = self._row_t[i]
                assert row_t is not None
                row_t[rows] += 1
                t_rows = row_t[rows][:, None].astype(ACC_DTYPE)
                m[rows] = b1 * m[rows] + (1 - b1) * g
                v[rows] = b2 * v[rows] + (1 - b2) * g**2
                m_hat = m[rows] / (1 - b1**t_rows)
                v_hat = v[rows] / (1 - b2**t_rows)
                if self.weight_decay:
                    p.data[rows] -= self.lr * self.weight_decay * p.data[rows]
                p.data[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()
