"""Full-softmax output layer with cross-entropy loss.

Used by the character LM (small vocabulary — the paper notes seeding is
unnecessary there because full softmax is affordable).  The layer owns
the ``|V| x H`` output embedding matrix and projects hidden states to
per-word scores; the loss gradient is **dense** over the vocabulary, so
it synchronizes with a plain ALLREDUCE like any RNN weight.
"""

from __future__ import annotations

import numpy as np

from . import init
from .dtypes import DTYPE
from .functional import cross_entropy_from_logits, replica_blocks
from .module import Module
from .parameter import Parameter

__all__ = ["FullSoftmaxLoss"]


class FullSoftmaxLoss(Module):
    """Output embedding + softmax + mean cross-entropy.

    Parameters
    ----------
    vocab_size, hidden_dim:
        ``|V|`` output classes; ``H`` input feature width.
    """

    def __init__(
        self,
        vocab_size: int,
        hidden_dim: int,
        rng: np.random.Generator,
        dtype: np.dtype = DTYPE,
    ):
        super().__init__()
        if vocab_size <= 1 or hidden_dim <= 0:
            raise ValueError("bad dimensions")
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.weight = Parameter(
            init.uniform(
                (vocab_size, hidden_dim), 1.0 / np.sqrt(hidden_dim), rng, dtype
            ),
            name="softmax.weight",
        )
        self.bias = Parameter(init.zeros((vocab_size,), dtype), name="softmax.bias")

    def forward(
        self, hidden: np.ndarray, targets: np.ndarray
    ) -> tuple[float | np.ndarray, dict]:
        """Mean NLL (nats/token) of ``targets`` given ``hidden`` rows.

        ``hidden`` is ``(N, H)`` with ``(N,)`` targets, or ``(R, N, H)``
        with ``(R, N)`` targets for ``R`` stacked replicas sharing these
        weights (one loss per replica).
        """
        if hidden.ndim not in (2, 3) or hidden.shape[-1] != self.hidden_dim:
            raise ValueError(f"hidden must be ([R,] N, {self.hidden_dim})")
        targets = np.asarray(targets)
        if targets.shape != hidden.shape[:-1]:
            raise ValueError("targets must be ([R,] N)")
        lead, n = hidden.shape[:-2], hidden.shape[-2]
        weight, bias = self.weight.data, self.bias.data
        dtype = np.result_type(hidden.dtype, weight.dtype, bias.dtype)
        blocks = replica_blocks(lead, n * self.vocab_size * dtype.itemsize)
        losses = np.empty(lead)
        dlogits = np.empty(lead + (n, self.vocab_size), dtype)
        for block in blocks:
            logits = hidden[block] @ weight.T + bias
            losses[block], _ = cross_entropy_from_logits(
                logits, targets[block], out=dlogits[block]
            )
        cache = {"hidden": hidden, "blocks": blocks, "dlogits": dlogits}
        return (losses if lead else float(losses)), cache

    def backward(self, cache: dict, loss_scale: float = 1.0) -> np.ndarray:
        """Accumulate (dense) output-embedding grads; return dhidden.

        ``loss_scale`` multiplies the gradient at the source — the
        loss-scaling hook used by FP16 training (Section III-C).
        """
        hidden, dlogits = cache["hidden"], cache["dlogits"]
        lead = hidden.shape[:-2]
        weight = self.weight.data
        weight_grad = np.empty(lead + weight.shape, dlogits.dtype)
        bias_grad = np.empty(lead + self.bias.shape, dlogits.dtype)
        dhidden = np.empty(hidden.shape, dlogits.dtype)
        for block in cache["blocks"]:
            d = dlogits[block]
            if loss_scale != 1.0:
                d = d * loss_scale
            np.matmul(d.swapaxes(-1, -2), hidden[block], out=weight_grad[block])
            d.sum(axis=-2, out=bias_grad[block])
            np.matmul(d, weight, out=dhidden[block])
        self.weight.accumulate_grad(weight_grad)
        self.bias.accumulate_grad(bias_grad)
        return dhidden
