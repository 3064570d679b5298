"""The word language model (Section IV-B).

Architecture after Jozefowicz et al. [36] as the paper describes it:
input embedding -> one LSTM layer (2048 cells at paper scale) -> linear
projection (512) -> sampled-softmax output embedding over the 100K-word
vocabulary with 1024 candidates per GPU.

The model exposes the trainer protocol:
``forward_backward(inputs, targets, state, rngs, loss_scale)`` runs
fused forward+backward over one batch or stacked rank rows and returns
the (unscaled) training loss and the final LSTM state — the batched
executor (:mod:`repro.nn.batched`) drives it and carries that state;
``eval_nll(batches)`` scores held-out data against the full vocabulary.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..nn.embedding import Embedding
from ..nn.linear import Linear
from ..nn.lstm import LSTM
from ..nn.module import Module
from ..nn.sampled_softmax import SampledSoftmaxLoss
from .config import WordLMConfig

__all__ = ["WordLanguageModel"]


class WordLanguageModel(Module):
    """Word-level LM with a sampled-softmax output embedding.

    Parameters
    ----------
    config:
        Architecture description.
    rng:
        Initialization generator.
    dtype:
        Parameter precision (float64 default for exactness-sensitive
        invariant tests; float32 matches production realism).
    stateful:
        Carry the LSTM state across training windows (truncated BPTT);
        the executor that runs the model holds the carry.
    """

    def __init__(
        self,
        config: WordLMConfig,
        rng: np.random.Generator,
        dtype: np.dtype = np.float64,
        stateful: bool = False,
    ):
        super().__init__()
        self.config = config
        self.stateful = stateful
        self.embedding = Embedding(
            config.vocab_size, config.embedding_dim, rng, dtype
        )
        self.lstm = LSTM(config.embedding_dim, config.hidden_dim, rng, dtype)
        self.projection = Linear(
            config.hidden_dim, config.projection_dim, rng, dtype=dtype
        )
        self.loss_layer = SampledSoftmaxLoss(
            config.vocab_size,
            config.projection_dim,
            config.num_samples,
            rng,
            dtype,
            weight=self.embedding.weight if config.tie_embeddings else None,
        )

    def _forward_hidden(
        self, inputs: np.ndarray, state=None
    ) -> tuple[np.ndarray, dict]:
        stacked = inputs.ndim == 3
        emb, emb_cache = self.embedding.forward(inputs, stacked=stacked)
        hs, lstm_cache = self.lstm.forward(emb, state=state)
        proj, proj_cache = self.projection.forward(hs, stacked=stacked)
        hidden = proj.reshape(
            inputs.shape[:-2] + (-1, self.config.projection_dim)
        )
        return hidden, {
            "emb": emb_cache,
            "lstm": lstm_cache,
            "proj": proj_cache,
            "shape": proj.shape,
        }

    #: No stream of its own: the trainer's per-rank sample generator
    #: (the seeding technique's control point) randomises each step.
    step_rng = None

    def forward_backward(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        state: tuple[np.ndarray, np.ndarray] | None,
        rngs: np.random.Generator | list[np.random.Generator],
        loss_scale: float = 1.0,
    ):
        """Fused forward+backward; returns ``(loss, final LSTM state)``.

        ``inputs``/``targets`` are one rank's ``(B, T)`` batch with its
        sample generator, or ``(R, B, T)`` stacks with a list of ``R``
        generators and ``(R, B, H)`` state parts: the layers then run
        all ``R`` ranks at once over this model's weights and
        leave ``(R, ...)`` gradient blocks in ``stacked_grads``.
        """
        hidden, caches = self._forward_hidden(inputs, state)
        targets = targets.reshape(inputs.shape[:-2] + (-1,))
        loss, loss_cache = self.loss_layer.forward(hidden, targets, rngs)
        dhidden = self.loss_layer.backward(loss_cache, loss_scale=loss_scale)
        del loss_cache  # the softmax gradient, before BPTT allocates its own
        dproj = dhidden.reshape(caches["shape"])
        dhs = self.projection.backward(dproj, caches["proj"])
        demb = self.lstm.backward(dhs, caches["lstm"])
        self.embedding.backward(demb, caches["emb"])
        return loss, caches["lstm"]["final_state"]

    def eval_nll(self, batches: list[Batch]) -> float:
        """Token-weighted mean NLL over the full vocabulary (nats/token)."""
        if not batches:
            raise ValueError("no evaluation batches")
        was_training = self.training
        self.eval()
        total_nll, total_tokens = 0.0, 0
        try:
            for batch in batches:
                hidden, _ = self._forward_hidden(batch.inputs)
                nll = self.loss_layer.full_nll(hidden, batch.targets.reshape(-1))
                total_nll += nll * batch.n_tokens
                total_tokens += batch.n_tokens
        finally:
            self.train(was_training)
        return total_nll / total_tokens
