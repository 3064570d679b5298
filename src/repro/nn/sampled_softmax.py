"""Sampled softmax with a log-uniform (Zipfian) candidate sampler.

The word LM's vocabulary (100K) makes the full softmax the dominant
cost, so the paper uses sampled softmax [27, 29]: each GPU scores only
``S`` sampled negative words (1024 per GPU in the experiments) plus the
true targets.  The **candidate sampler's seed** is exactly the lever the
paper's *seeding* technique (Section III-B) controls: GPUs in the same
seed group draw identical candidate sets, restoring inter-GPU word
overlap so the uniqueness technique can compress the output-embedding
gradient exchange.

The sampler is log-uniform over frequency-ranked ids — the standard
choice matching a Zipf corpus (``P(k) ∝ log(1 + 1/(k+1))``), identical
to ``tf.random.log_uniform_candidate_sampler``.

Backward emits **row-sparse** gradients over the candidate rows of the
output embedding — the structure the exchange strategies in
:mod:`repro.core` synchronize.
"""

from __future__ import annotations

import numpy as np

from . import init
from .dtypes import DTYPE
from .functional import cross_entropy_from_logits, replica_blocks
from .module import Module
from .parameter import Parameter, SparseGrad

__all__ = ["LogUniformSampler", "SampledSoftmaxLoss"]


class LogUniformSampler:
    """Log-uniform candidate sampler over ids ``0 .. vocab_size-1``.

    ``P(k) = log((k+2)/(k+1)) / log(vocab_size + 1)`` — heavier on small
    ids, matching frequency-ranked vocabularies.  Draws are *unique*
    (sampling without replacement via rejection), as in TF's
    ``unique=True`` mode, and the expected-count correction uses the
    exact inclusion probability ``1 - (1 - p)^S``.
    """

    def __init__(self, vocab_size: int):
        if vocab_size <= 1:
            raise ValueError("vocab_size must exceed 1")
        self.vocab_size = vocab_size
        self._log_range = np.log(vocab_size + 1.0)

    def probs(self, ids: np.ndarray) -> np.ndarray:
        """Per-draw probability of each id."""
        ids = np.asarray(ids, dtype=np.float64)
        return np.log((ids + 2.0) / (ids + 1.0)) / self._log_range

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` unique ids (ascending order not guaranteed)."""
        if not 0 < n <= self.vocab_size:
            raise ValueError(f"cannot draw {n} unique ids from {self.vocab_size}")
        chosen = np.empty(0, dtype=np.int64)
        # Rejection loop: each round draws the remaining count with the
        # inverse-CDF transform; expected rounds is O(1) for n << V.
        while chosen.size < n:
            need = n - chosen.size
            draws = np.exp(rng.random(need * 2 + 8) * self._log_range) - 1.0
            ids = np.minimum(draws.astype(np.int64), self.vocab_size - 1)
            # Keep each new id at its first occurrence, in draw order.
            uniq, first = np.unique(ids, return_index=True)
            if chosen.size:
                first = first[~np.isin(uniq, chosen, assume_unique=True)]
            first.sort()
            chosen = np.concatenate([chosen, ids[first[:need]]])
        return chosen

    def expected_log_count(self, ids: np.ndarray, num_samples: int) -> np.ndarray:
        """``log(P[id appears in a unique sample of size S])`` per id."""
        p = self.probs(ids)
        # 1 - (1-p)^S, computed stably.
        incl = -np.expm1(num_samples * np.log1p(-p))
        return np.log(np.maximum(incl, 1e-300))


class SampledSoftmaxLoss(Module):
    """Output embedding scored over a sampled candidate set.

    Parameters
    ----------
    vocab_size, hidden_dim:
        Output vocabulary and input feature width.
    num_samples:
        ``S`` — negatives drawn per forward call (per GPU).  The paper
        uses 1024.

    Notes
    -----
    The caller supplies the sampling ``rng`` per forward call: the SPMD
    trainer hands each rank the generator its **seed group** dictates,
    which is the entire mechanism of the seeding technique.
    """

    def __init__(
        self,
        vocab_size: int,
        hidden_dim: int,
        num_samples: int,
        rng: np.random.Generator,
        dtype: np.dtype = DTYPE,
        weight: Parameter | None = None,
    ):
        super().__init__()
        if vocab_size <= 1 or hidden_dim <= 0:
            raise ValueError("bad dimensions")
        if not 0 < num_samples < vocab_size:
            raise ValueError("need 0 < num_samples < vocab_size")
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.num_samples = num_samples
        self.sampler = LogUniformSampler(vocab_size)
        if weight is not None:
            # Tied output embedding: share the caller's parameter (the
            # input embedding, typically).  Module traversal deduplicates
            # shared parameters, so optimizers update it exactly once.
            if weight.data.shape != (vocab_size, hidden_dim):
                raise ValueError(
                    f"tied weight shape {weight.data.shape} != "
                    f"({vocab_size}, {hidden_dim})"
                )
            self.weight = weight
        else:
            self.weight = Parameter(
                init.uniform(
                    (vocab_size, hidden_dim), 1.0 / np.sqrt(hidden_dim), rng, dtype
                ),
                name="sampled_softmax.weight",
            )

    def forward(
        self,
        hidden: np.ndarray,
        targets: np.ndarray,
        sample_rng: np.random.Generator | list[np.random.Generator],
        sampled_ids: np.ndarray | None = None,
    ) -> tuple[float | np.ndarray, dict]:
        """Sampled-softmax mean NLL.

        ``hidden`` is ``(N, P)`` with ``(N,)`` targets, or ``(R, N, P)``
        with ``(R, N)`` targets for ``R`` stacked replicas sharing this
        weight; ``sample_rng`` is then a list of the replicas' own
        generators, each drawing its candidates in rank order (one loss
        per replica).  ``sampled_ids`` — ``(S,)`` / ``(R, S)`` —
        overrides the draw (used by tests and by ranks sharing a seed
        group that pre-draw once); otherwise ``S`` unique negatives are
        drawn from ``sample_rng``.
        """
        if hidden.ndim not in (2, 3) or hidden.shape[-1] != self.hidden_dim:
            raise ValueError(f"hidden must be ([R,] N, {self.hidden_dim})")
        targets = np.asarray(targets)
        if targets.shape != hidden.shape[:-1]:
            raise ValueError("targets must be ([R,] N)")
        if sampled_ids is None:
            if hidden.ndim == 2:
                sampled_ids = self.sampler.sample(self.num_samples, sample_rng)
            else:
                sampled_ids = np.stack(
                    [
                        self.sampler.sample(self.num_samples, rng)
                        for rng in sample_rng
                    ]
                )
        else:
            sampled_ids = np.asarray(sampled_ids, dtype=np.int64)
        if (
            sampled_ids.ndim != hidden.ndim - 1
            or sampled_ids.shape[:-1] != hidden.shape[:-2]
        ):
            raise ValueError("sampled_ids must be 1-D ((R, S) when stacked)")

        E = self.weight.data
        lead, n = hidden.shape[:-2], hidden.shape[-2]
        num_sampled = sampled_ids.shape[-1]
        # The log-Q correction is float64, hence so are the logits.
        blocks = replica_blocks(lead, n * (num_sampled + 1) * 8)
        losses = np.empty(lead)
        dlogits = np.empty(lead + (n, num_sampled + 1))
        hit_mask = np.empty(lead + (n, num_sampled), dtype=bool)
        for block in blocks:
            h, t, c = hidden[block], targets[block], sampled_ids[block]
            # Scores with the log-Q correction (subtract expected log count).
            true_logit = (h * E[t]).sum(axis=-1)
            true_logit = true_logit - self.sampler.expected_log_count(
                t, self.num_samples
            )
            samp_logits = np.matmul(h, E[c].swapaxes(-1, -2))
            samp_logits = samp_logits - self.sampler.expected_log_count(
                c, self.num_samples
            )[..., None, :]
            # Remove accidental hits: a negative equal to the row's target
            # would duplicate the true class.
            hits = np.equal(
                c[..., None, :], t[..., :, None], out=hit_mask[block]
            )
            samp_logits = np.where(hits, -1e30, samp_logits)

            logits = np.concatenate(
                [true_logit[..., None], samp_logits], axis=-1
            )
            labels = np.zeros(t.shape, dtype=np.int64)
            losses[block], _ = cross_entropy_from_logits(
                logits, labels, out=dlogits[block]
            )
        cache = {
            "hidden": hidden,
            "targets": targets,
            "sampled_ids": sampled_ids,
            "blocks": blocks,
            "dlogits": dlogits,
            "hit_mask": hit_mask,
        }
        return (losses if lead else float(losses)), cache

    def full_nll(self, hidden: np.ndarray, targets: np.ndarray) -> float:
        """Exact mean NLL over the *full* vocabulary (evaluation only).

        Sampled-softmax training losses are biased estimates; validation
        perplexity (Figures 5 and 7) must score against the whole
        vocabulary, which is affordable out of the training loop.
        """
        if hidden.ndim != 2 or hidden.shape[1] != self.hidden_dim:
            raise ValueError(f"hidden must be (N, {self.hidden_dim})")
        targets = np.asarray(targets)
        logits = hidden @ self.weight.data.T
        loss, _ = cross_entropy_from_logits(logits, targets)
        return loss

    def backward(self, cache: dict, loss_scale: float = 1.0) -> np.ndarray:
        """Accumulate sparse output-embedding grads; return dhidden."""
        hidden = cache["hidden"]
        targets = cache["targets"]
        sampled_ids = cache["sampled_ids"]
        dlogits, hit_mask = cache["dlogits"], cache["hit_mask"]
        E = self.weight.data
        dim = (self.hidden_dim,)
        dhidden = np.empty(hidden.shape, dlogits.dtype)
        target_rows = np.empty(targets.shape + dim, dlogits.dtype)
        sampled_rows = np.empty(sampled_ids.shape + dim, dlogits.dtype)
        for block in cache["blocks"]:
            h, t, c = hidden[block], targets[block], sampled_ids[block]
            d = dlogits[block]
            if loss_scale != 1.0:
                d = d * loss_scale
            d_true = d[..., 0]
            d_samp = np.where(hit_mask[block], 0.0, d[..., 1:])
            np.add(
                d_true[..., None] * E[t],
                np.matmul(d_samp, E[c]),
                out=dhidden[block],
            )
            np.multiply(d_true[..., None], h, out=target_rows[block])
            # Non-finite d_samp (an overflowed step the loss scaler will
            # skip) flows through as NaN rows rather than a warning.
            with np.errstate(invalid="ignore"):
                np.matmul(d_samp.swapaxes(-1, -2), h, out=sampled_rows[block])

        # Sparse grads: one row per true target token, plus the shared
        # candidate rows.
        self.weight.accumulate_sparse_grad(
            SparseGrad(indices=targets.astype(np.int64), values=target_rows)
        )
        self.weight.accumulate_sparse_grad(
            SparseGrad(indices=sampled_ids, values=sampled_rows)
        )
        return dhidden
