"""Inverted dropout.

The char LM (Section IV-B) trains with dropout; inverted scaling keeps
eval-mode forward passes identity, so no rescaling is needed at test
time.  The mask generator is explicit so SPMD rank replicas can use
de-correlated streams while remaining reproducible.
"""

from __future__ import annotations

import numpy as np

from .module import Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Drop activations with probability ``p`` during training."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(
        self,
        x: np.ndarray,
        rngs: np.random.Generator | list[np.random.Generator] | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Mask ``x``.  ``rngs`` defaults to the layer's own stream; a
        list of ``R`` generators masks ``(R, ...)`` stacked replicas,
        each replica's mask drawn from its own generator in rank order
        (exactly the draws ``R`` separate calls would consume)."""
        if not self.training or self.p == 0.0:
            return x, {"mask": None}
        keep = 1.0 - self.p
        if rngs is None:
            rngs = self._rng
        if isinstance(rngs, np.random.Generator):
            draws = rngs.random(x.shape)
        else:
            draws = np.empty(x.shape)
            for replica, rng in zip(draws, rngs, strict=True):
                rng.random(out=replica)
        mask = (draws < keep).astype(x.dtype) / keep
        return x * mask, {"mask": mask}

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        mask = cache["mask"]
        if mask is None:
            return grad_out
        if grad_out.shape != mask.shape:
            raise ValueError("gradient shape does not match forward shape")
        return grad_out * mask
