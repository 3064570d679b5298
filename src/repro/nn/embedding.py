"""Input embedding layer with row-sparse gradients.

Forward is a row gather: a ``(B, T)`` batch of token ids pulls rows from
the ``|V| x D`` matrix into a dense ``(B, T, D)`` activation (Figure 2
of the paper).  Backward emits a :class:`~repro.nn.parameter.SparseGrad`
— one ``(index, grad_row)`` pair per *token* — without ever
materializing a ``|V| x D`` dense gradient.  How those sparse grads are
synchronized across GPUs is the paper's core subject.
"""

from __future__ import annotations

import numpy as np

from . import init
from .dtypes import DTYPE
from .module import Module
from .parameter import Parameter, SparseGrad

__all__ = ["Embedding"]


class Embedding(Module):
    """Token-id -> dense-vector lookup table.

    Parameters
    ----------
    num_embeddings:
        Vocabulary size ``|V|``.
    dim:
        Embedding dimension ``D``.
    rng:
        Initialization generator (uniform ±1/sqrt(D), the common LM choice).
    dtype:
        Parameter dtype; defaults to :data:`repro.nn.DTYPE` (float32,
        the paper's hardware) — exactness checks pass ``ACC_DTYPE``.
    """

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng: np.random.Generator,
        dtype: np.dtype = DTYPE,
    ):
        super().__init__()
        if num_embeddings <= 0 or dim <= 0:
            raise ValueError("num_embeddings and dim must be positive")
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            init.uniform((num_embeddings, dim), 1.0 / np.sqrt(dim), rng, dtype),
            name="embedding.weight",
        )

    def forward(
        self, token_ids: np.ndarray, stacked: bool = False
    ) -> tuple[np.ndarray, dict]:
        """Gather rows: returns ``(activations, cache)``.

        ``activations`` has shape ``token_ids.shape + (dim,)``.
        ``stacked`` declares the leading axis of ``token_ids`` a replica
        axis: backward then emits one sparse gradient per replica.
        """
        token_ids = np.asarray(token_ids)
        if not np.issubdtype(token_ids.dtype, np.integer):
            raise ValueError("token ids must be integers")
        if token_ids.size and (
            token_ids.min() < 0 or token_ids.max() >= self.num_embeddings
        ):
            raise ValueError("token id out of vocabulary range")
        out = self.weight.data[token_ids]
        return out, {"token_ids": token_ids, "stacked": stacked}

    def backward(self, grad_out: np.ndarray, cache: dict) -> None:
        """Record the sparse gradient; returns nothing (inputs are ids).

        ``grad_out`` must match the forward activation shape.  One sparse
        row per token: duplicates (the repeated "a" of Figure 2) are kept
        and summed later by coalesce/apply — preserving the accumulation
        semantics Section II-A describes.
        """
        token_ids = cache["token_ids"]
        expected = token_ids.shape + (self.dim,)
        if grad_out.shape != expected:
            raise ValueError(f"grad shape {grad_out.shape} != {expected}")
        lead = token_ids.shape[:1] if cache["stacked"] else ()
        self.weight.accumulate_sparse_grad(
            SparseGrad(
                indices=token_ids.reshape(lead + (-1,)).astype(np.int64),
                values=grad_out.reshape(lead + (-1, self.dim)),
            )
        )
