"""The character language model (Section IV-B).

Architecture after Hestness et al. [38]: input embedding -> depth-10
Recurrent Highway Network (1792 cells at paper scale, 213M parameters)
-> **full** softmax over the character vocabulary (98 English / 15,437
Chinese symbols) with dropout, trained with Adam + weight decay.

Because the output softmax is full, its gradient is dense and
synchronizes via ALLREDUCE; only the *input* embedding produces sparse
gradients here — and as the paper notes (Section V-B), the number of
unique characters saturates at the vocabulary size as batches grow, so
uniqueness helps less for tiny vocabularies and most for Tieba's 15K.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..nn.dropout import Dropout
from ..nn.embedding import Embedding
from ..nn.module import Module
from ..nn.rhn import RHN
from ..nn.softmax import FullSoftmaxLoss
from .config import CharLMConfig

__all__ = ["CharLanguageModel"]


class CharLanguageModel(Module):
    """Character-level LM with an RHN backbone and full softmax.

    ``dropout_rng`` defaults to a stream spawned from ``rng``; the SPMD
    trainer takes per-rank streams from per-rank builds so masks
    de-correlate across ranks while initialization stays identical.
    ``stateful`` carries the RHN state across training windows; the
    executor that runs the model holds the carry.
    """

    def __init__(
        self,
        config: CharLMConfig,
        rng: np.random.Generator,
        dtype: np.dtype = np.float64,
        dropout_rng: np.random.Generator | None = None,
        stateful: bool = False,
    ):
        super().__init__()
        self.config = config
        self.stateful = stateful
        self.embedding = Embedding(
            config.vocab_size, config.embedding_dim, rng, dtype
        )
        self.rhn = RHN(
            config.embedding_dim, config.hidden_dim, config.depth, rng, dtype
        )
        self.dropout = Dropout(
            config.dropout,
            dropout_rng if dropout_rng is not None else np.random.default_rng(rng.integers(2**63)),
        )
        self.loss_layer = FullSoftmaxLoss(
            config.vocab_size, config.hidden_dim, rng, dtype
        )

    @property
    def step_rng(self) -> np.random.Generator:
        """This build's own per-step random stream (the dropout masks)."""
        return self.dropout._rng

    def forward_backward(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        state: np.ndarray | None,
        rngs: np.random.Generator | list[np.random.Generator],
        loss_scale: float = 1.0,
    ):
        """Fused forward+backward; returns ``(loss, final RHN state)``.

        ``inputs``/``targets`` are one rank's ``(B, T)`` batch with its
        dropout generator, or ``(R, B, T)`` stacks with a list of ``R``
        generators and an ``(R, B, H)`` state: the layers then run all
        ``R`` ranks at once over this model's weights and leave
        ``(R, ...)`` gradient blocks in ``stacked_grads``.
        """
        stacked = inputs.ndim == 3
        emb, emb_cache = self.embedding.forward(inputs, stacked=stacked)
        hs, rhn_cache = self.rhn.forward(emb, state=state)
        dropped, drop_cache = self.dropout.forward(hs, rngs)
        rows = inputs.shape[:-2] + (-1,)
        hidden = dropped.reshape(rows + (self.config.hidden_dim,))
        loss, loss_cache = self.loss_layer.forward(
            hidden, targets.reshape(rows)
        )
        dhidden = self.loss_layer.backward(loss_cache, loss_scale=loss_scale)
        del loss_cache  # the softmax gradient, before BPTT allocates its own
        ddrop = self.dropout.backward(dhidden.reshape(dropped.shape), drop_cache)
        demb = self.rhn.backward(ddrop, rhn_cache)
        self.embedding.backward(demb, emb_cache)
        return loss, rhn_cache["final_state"]

    def eval_nll(self, batches: list[Batch]) -> float:
        """Token-weighted mean NLL (nats/char) with dropout disabled."""
        if not batches:
            raise ValueError("no evaluation batches")
        was_training = self.training
        self.eval()
        total_nll, total_tokens = 0.0, 0
        try:
            for batch in batches:
                emb, _ = self.embedding.forward(batch.inputs)
                hs, _ = self.rhn.forward(emb)
                hidden = hs.reshape(-1, self.config.hidden_dim)
                loss, _ = self.loss_layer.forward(
                    hidden, batch.targets.reshape(-1)
                )
                total_nll += loss * batch.n_tokens
                total_tokens += batch.n_tokens
        finally:
            self.train(was_training)
        return total_nll / total_tokens
