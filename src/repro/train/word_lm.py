"""The word language model (Section IV-B).

Architecture after Jozefowicz et al. [36] as the paper describes it:
input embedding -> one LSTM layer (2048 cells at paper scale) -> linear
projection (512) -> sampled-softmax output embedding over the 100K-word
vocabulary with 1024 candidates per GPU.

The model exposes the trainer protocol:
``step(batch, sample_rng, loss_scale)`` runs fused forward+backward and
returns the (unscaled) training loss; ``eval_nll(batches)`` scores
held-out data against the full vocabulary.
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
        Initialization generator — replicas across ranks must be built
        with generators in identical state.
    dtype:
        Parameter precision (float64 default for exactness-sensitive
        invariant tests; float32 matches production realism).
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
        self._state: tuple[np.ndarray, np.ndarray] | None = None
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

    def reset_state(self) -> None:
        """Drop the carried LSTM state (start of an epoch / new stream)."""
        self._state = None

    def _carry_in(self, batch_size: int):
        """Current carried state, discarded on a batch-shape change."""
        if not (self.stateful and self.training):
            return None
        if self._state is not None and self._state[0].shape[0] != batch_size:
            self._state = None
        return self._state

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

        ``inputs``/``targets`` are one replica's ``(B, T)`` batch with
        its sample generator, or ``(R, B, T)`` stacks with a list of
        ``R`` generators and ``(R, B, H)`` state parts: the layers then
        run all ``R`` replicas at once over this model's weights and
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

    def step(
        self,
        batch: Batch,
        sample_rng: np.random.Generator,
        loss_scale: float = 1.0,
    ) -> float:
        """One fused forward+backward; gradients accumulate in parameters.

        ``sample_rng`` drives the candidate sampler — the seeding
        technique's control point.  Returns the sampled-softmax training
        loss (nats/token, unscaled).
        """
        loss, final_state = self.forward_backward(
            batch.inputs,
            batch.targets,
            self._carry_in(batch.inputs.shape[0]),
            sample_rng,
            loss_scale,
        )
        if self.stateful and self.training:
            # Truncated BPTT: carry values forward, cut the gradient.
            self._state = final_state
        return loss

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
