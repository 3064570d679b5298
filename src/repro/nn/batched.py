"""Rank execution: one model, R rank rows.

The simulator runs the G ranks of synchronous data parallelism in one
host process.  Their weights are one set — identical updates applied to
identical weights — so their forward/backward passes differ only in what
is per rank: the batch shard, the random streams and the carried BPTT
state.  The whole data axis therefore executes as stacked arrays with a
leading rank axis, over the one model's weights.

The layers carry that axis (:mod:`repro.nn.lstm`, :mod:`~repro.nn.rhn`,
:mod:`~repro.nn.embedding`, :mod:`~repro.nn.linear`,
:mod:`~repro.nn.dropout`, both softmax losses): one
``forward``/``backward`` body serves the ``(B, T, ...)`` call and the
``(R, B, T, ...)`` call, the weights broadcast as the shared operand.
This module is only the **executor** around any model built from them: it
stacks the ranks' batches and carried state, calls the model's
``forward_backward`` over ``(R', B, T)`` row ranges, and folds the
``(R', ...)`` gradient blocks the layers park in
``Parameter.stacked_grads`` into each parameter's **rank rows** — one
``(R, ...)`` dense block, accumulated over micro-steps, and its
``(R, N)`` token stacks in arrival order — which the gradient sync
takes (:func:`rank_grads`).

Bit-exactness contract
----------------------
Stacking is a *scheduling* choice, never a numerics change: every
rank's losses, gradients, RNG stream consumption and carried state are
**bit-for-bit identical** whatever the row width ``R'`` — ``R' = R``
(one call) and ``R' = 1`` (``R`` calls) alike — and identical to ``R``
separate ``(B, T)`` passes (pinned by ``tests/train/
test_batched_exactness.py`` against the written-out reference of
``tests/conformance``).  This holds because, with the weights entering
as a shared 2-D operand broadcast across the rank axis:

* ``np.matmul((R, n, k), (k, m))`` equals each ``(n, k) @ (k, m)``
  slice exactly (numpy dispatches the same gemm per slice, including
  transposed-view operands) — and is never rewritten as one flattened
  gemm, whose kernel choice differs at degenerate shapes;
* elementwise ops, gathers, reductions over the same axes, and the
  stable softmax/sigmoid forms are slice-invariant;
* dropout masks and sampled-softmax candidates are drawn from **each
  rank's own generator in rank order**, consuming exactly the draws
  ``R`` separate passes would;
* accumulation adds each later gradient, uncast, onto the running rows
  in the parameter's dtype, and joins sparse tokens in arrival order —
  what ``Parameter.accumulate_grad`` and a per-rank concatenation do.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from .parameter import Parameter, SparseGrad

__all__ = ["BatchedExecutor", "BatchedCharLMExecutor", "rank_grads"]


# The batched path builds thousands of SparseGrads per step from arrays
# that satisfy the dataclass invariants by construction; skip validation.
_sparse_grad = SparseGrad._unsafe


def _parts(state) -> tuple[np.ndarray, ...]:
    """A carried state as a tuple of arrays (an LSTM's ``(h, c)`` is one)."""
    return state if isinstance(state, tuple) else (state,)


def _rows(state, rows: slice):
    """Rows ``rows`` of a stacked carried state (None stays None)."""
    if state is None:
        return None
    cut = tuple(a[rows] for a in _parts(state))
    return cut if isinstance(state, tuple) else cut[0]


def _join(pieces: list):
    """Row ranges of a stacked state, or of rank rows, joined in order."""
    if len(pieces) == 1:
        return pieces[0]
    if isinstance(pieces[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*pieces))
    return np.concatenate(pieces)


def _fold(p: Parameter, dense, arrivals: list):
    """One call's dense gradients onto one row range's running block.

    ``dense`` is the range's running ``(R', ...)`` block (or None);
    ``arrivals`` are the call's ``stacked_grads`` in arrival order.
    Returns the block and the call's ``(R', N)`` token stacks.
    """
    dtype = p.data.dtype
    tokens = []
    for grad in arrivals:
        if isinstance(grad, SparseGrad):
            tokens.append(grad)
        elif dense is None:
            dense = grad if grad.dtype == dtype else grad.astype(dtype)
        else:
            dense = (dense + grad).astype(dtype, copy=False)
    return dense, tokens


def rank_grads(p: Parameter) -> tuple[np.ndarray | None, list[SparseGrad] | None]:
    """A parameter's pre-sync rank rows, taken off its ``stacked_grads``.

    Returns the ``(R, ...)`` dense block (or None) and the ``R``
    token-level sparse gradients (or None): each rank's tokens joined
    in arrival order, all ranks sharing one lazy local reduction
    (:class:`_StackedCoalesce`).
    """
    block, stacks = _fold(p, None, p.stacked_grads)
    p.stacked_grads = []
    if not stacks:
        return block, None
    if len(stacks) == 1:
        ids, vals = stacks[0].indices, stacks[0].values
    else:
        ids = np.concatenate([s.indices for s in stacks], axis=1)
        vals = np.concatenate([s.values for s in stacks], axis=1)
    reduction = _StackedCoalesce(ids, vals, p.data.shape[0])
    rows = []
    for ri, (row_ids, row_vals) in enumerate(zip(ids, vals)):
        row = _sparse_grad(row_ids, row_vals)
        row._coalesced = partial(reduction.rank, ri)
        rows.append(row)
    return block, rows


class BatchedExecutor:
    """Every data rank's fused forward+backward, over one model.

    Calls ``model.forward_backward`` with a leading rank axis on every
    input, ``width`` ranks per call, and leaves each parameter's
    gradients as rank rows in its ``stacked_grads`` (see the module
    docstring).  What stays per rank lives here: ``rngs``, each rank's
    own step stream for a model that owns one (``model.step_rng``), and
    ``carry``, the one stacked carried-BPTT state whose row ``r`` is
    rank ``r``'s.
    """

    def __init__(
        self,
        model,
        rngs: list[np.random.Generator] | None,
        width: int,
    ):
        self.model = model
        self.rngs = rngs
        self.width = width
        self.carry = None
        self._params = list(model.parameters())

    def step(
        self,
        batches,
        sample_rngs: Callable[[], list[np.random.Generator]] | None = None,
        loss_scale: float = 1.0,
    ) -> list[float]:
        """Run one micro-step for all ranks; the per-rank losses.

        ``batches[rank]`` is rank's local :class:`~repro.data.batching.
        Batch`.  ``sample_rngs()`` returns this step's per-rank sample
        generators; it is called only for models the trainer's
        generators drive (no ``rngs``) — building G generators costs
        more than a small model's whole stacked pass.
        """
        model = self.model
        R = len(batches)
        shape = batches[0].inputs.shape
        # Preallocate-and-assign beats np.stack's per-item overhead at
        # G=512 (same bits: row-wise copies of the same arrays).
        inputs = np.empty((R,) + shape, dtype=batches[0].inputs.dtype)
        targets = np.empty((R,) + shape, dtype=batches[0].targets.dtype)
        for ri, b in enumerate(batches):
            inputs[ri] = b.inputs
            targets[ri] = b.targets
        carries = model.stateful and model.training
        state = self.carry if carries else None
        if state is not None and _parts(state)[0].shape[1] != shape[0]:
            state = None  # a batch-size change drops the carry
        rngs = self.rngs if self.rngs is not None else sample_rngs()
        # What earlier micro-steps left: each parameter's running dense
        # block and its token stacks, which later tokens follow.
        held = [_fold(p, None, p.stacked_grads) for p in self._params]
        for p in self._params:
            p.stacked_grads = []
        losses, finals = [], []
        pieces: list[list] = [[] for _ in self._params]
        for lo in range(0, R, self.width):
            rows = slice(lo, lo + self.width)
            loss, final = model.forward_backward(
                inputs[rows], targets[rows], _rows(state, rows), rngs[rows],
                loss_scale,
            )
            losses.extend(float(x) for x in loss)
            finals.append(final)
            for p, (dense, _), out in zip(self._params, held, pieces):
                arrivals, p.stacked_grads = p.stacked_grads, []
                out.append(
                    _fold(p, None if dense is None else dense[rows], arrivals)
                )
        if carries:
            self.carry = _join(finals)
        for p, (_, tokens), out in zip(self._params, held, pieces):
            dense = [d for d, _ in out if d is not None]
            if dense:
                p.stacked_grads.append(_join(dense))
            p.stacked_grads += tokens
            # The calls' j-th stacks cover disjoint rows: join them.
            for stacks in zip(*(t for _, t in out)):
                p.stacked_grads.append(
                    stacks[0] if len(stacks) == 1 else _sparse_grad(
                        np.concatenate([t.indices for t in stacks]),
                        np.concatenate([t.values for t in stacks]),
                    )
                )
        return losses


class _StackedCoalesce:
    """All ranks' local unique-reduce (steps 1-2) in one pass, on demand.

    Offsetting rank ``r``'s ids by ``r * vocab`` makes the per-rank id
    spaces disjoint, so one ``np.unique`` + one ``np.add.at`` computes
    every rank's sorted-unique types and summed rows.  Within a rank,
    tokens are visited in the same order as the per-rank
    ``SparseGrad.coalesce``, and cross-rank rows are disjoint — the
    per-rank results are bit-identical.  Each token-level gradient gets
    ``rank`` as its lazy ``_coalesced``: the pass runs when the sparse
    exchange first asks for one, and never for a strategy that ships
    token-level rows.
    """

    def __init__(self, ids: np.ndarray, vals: np.ndarray, vocab: int):
        self._pending = (ids, vals, vocab)
        self._reduced: list[SparseGrad] = []

    def rank(self, ri: int) -> SparseGrad:
        if self._pending is not None:
            self._reduce(*self._pending)
            self._pending = None
        return self._reduced[ri]

    def _reduce(self, ids: np.ndarray, vals: np.ndarray, vocab: int) -> None:
        R, N = ids.shape
        D = vals.shape[2]
        offset = ids + (np.arange(R, dtype=np.int64) * vocab)[:, None]
        uniq, inverse = np.unique(offset.ravel(), return_inverse=True)
        reduced = np.zeros((uniq.size, D), vals.dtype)
        np.add.at(reduced, inverse, vals.reshape(R * N, D))
        bounds = np.searchsorted(uniq, np.arange(1, R + 1) * vocab)
        start = 0
        for ri in range(R):
            stop = int(bounds[ri])
            self._reduced.append(
                _sparse_grad(uniq[start:stop] - ri * vocab, reduced[start:stop])
            )
            start = stop


#: The executor's former, char-LM-only name (``benchmarks/e2e/tracing.py``
#: resolves ``BatchedCharLMExecutor.step``).
BatchedCharLMExecutor = BatchedExecutor
