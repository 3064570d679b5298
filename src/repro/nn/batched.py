"""Batched SPMD rank execution: all replicas' numpy work in one pass.

The simulator runs G model replicas in one host process.  The per-rank
training loop (``for rank: replica.step(batch)``) pays G Python
dispatches into numpy *per layer per time step* — at large G the
interpreter, not BLAS, dominates wall-clock.  Data-parallel replicas
are **one set of weights** (the trainer binds every replica to replica
0's parameter arrays), so their forward/backward passes differ only in
the batch data; the whole world can execute as stacked arrays with a
leading rank axis.

The layers themselves carry that axis (:mod:`repro.nn.lstm`,
:mod:`~repro.nn.rhn`, :mod:`~repro.nn.embedding`,
:mod:`~repro.nn.linear`, :mod:`~repro.nn.dropout`, both softmax
losses): one ``forward``/``backward`` body serves the ``(B, T, ...)``
call and the ``(R, B, T, ...)`` call, with rank 0's weights broadcast
as the shared operand.  This module is only the **driver** around any
model built from them: the guards that decide whether a step may stack,
the stacked call on rank 0's module, and the fan-out of the resulting
``(R, ...)`` gradient blocks to every replica's parameters.

Bit-exactness contract
----------------------
The fast path is a *scheduling* optimization, never a numerics change:
every rank's losses, gradients, RNG stream consumption and carried
state are **bit-for-bit identical** to the per-rank loop (regression-
pinned by ``tests/train/test_batched_exactness.py`` and the 200-case
property suite).  This holds because, with the replica weights entering
as a shared 2-D operand broadcast across the rank axis:

* ``np.matmul((R, n, k), (k, m))`` equals each ``(n, k) @ (k, m)``
  slice exactly (numpy dispatches the same gemm per slice, including
  transposed-view operands) — and is never rewritten as one flattened
  gemm, whose kernel choice differs at degenerate shapes;
* elementwise ops, gathers, reductions over the same axes, and the
  stable softmax/sigmoid forms are slice-invariant;
* dropout masks and sampled-softmax candidates are drawn from **each
  replica's own generator in rank order**, consuming exactly the draws
  the per-rank loop would.

Anything outside the proven envelope falls back to the per-rank loop:

* replicas are not all the same model class — one that defines
  ``forward_backward`` itself — with equal configs (checked once, at
  build);
* training/eval flags disagree across replicas, carried recurrent
  states are inconsistent, or batch shapes are ragged (checked per
  step);
* a replica's parameter no longer binds rank 0's array — an identity
  check per step, no array is read; a rebound ``p.data`` disables the
  executor permanently (an un-shared world is a bug the slow path and
  ``assert_replicas_synchronized`` will surface, not a state the fast
  path should silently run on rank 0's weights).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from .parameter import SparseGrad

__all__ = ["BatchedExecutor", "BatchedCharLMExecutor", "build_batched_executor"]


# The batched path builds thousands of SparseGrads per step from arrays
# that satisfy the dataclass invariants by construction; skip validation.
_sparse_grad = SparseGrad._unsafe


def build_batched_executor(replicas) -> "BatchedExecutor | None":
    """Return a batched executor for ``replicas``, or None if unsupported.

    Supported: two or more replicas of one model class built from the
    replica-axis layers — a class that itself defines
    ``forward_backward(inputs, targets, state, rngs, loss_scale)`` and
    ``step_rng`` (exact type: a subclass may override ``step``) —
    sharing one architecture config and statefulness.  A single replica
    gains nothing from stacking.
    """
    if len(replicas) < 2:
        return None
    first = replicas[0]
    if "forward_backward" not in vars(type(first)):
        return None
    for m in replicas[1:]:
        if (
            type(m) is not type(first)
            or m.config != first.config
            or m.stateful != first.stateful
        ):
            return None
    return BatchedExecutor(list(replicas))


def _parts(state) -> tuple[np.ndarray, ...]:
    """A carried state as a tuple of arrays (an LSTM's ``(h, c)`` is one)."""
    return state if isinstance(state, tuple) else (state,)


class BatchedExecutor:
    """Execute every replica's fused forward+backward in one stacked pass.

    Calls rank 0's ``forward_backward`` with a leading rank axis ``R``
    on every input — rank 0's parameters are the shared weights (valid
    because every replica binds the same arrays; replicas that do not —
    a hand-built list — never take the fast path).  Gradients are
    accumulated into **each** replica's parameters, so gradient sync,
    the optimizer, loss scaling and telemetry all see the same state the
    per-rank loop would produce.
    """

    def __init__(self, replicas):
        if len(replicas) < 2:
            raise ValueError("batched execution needs at least two replicas")
        self.replicas = replicas
        self._calls = 0
        self._disabled = False
        self.fallback_reason = ""
        # Module structure is fixed after construction: walk it once.
        self._params = [list(m.parameters()) for m in replicas]
        self._other_params = [p for ps in self._params[1:] for p in ps]
        self._modules = [list(m.modules()) for m in replicas]
        own = [m.step_rng for m in replicas]
        self._own_rngs = None if own[0] is None else own

    @property
    def active(self) -> bool:
        """False once the executor has permanently disabled itself."""
        return not self._disabled

    def _disable(self, reason: str) -> None:
        self._disabled = True
        self.fallback_reason = reason

    def _shares_storage(self) -> bool:
        """Whether every replica's parameters still bind rank 0's arrays."""
        base = [p.data for p in self._params[0]] * (len(self._params) - 1)
        return all(p.data is data for p, data in zip(self._other_params, base))

    def step(
        self,
        batches,
        sample_rngs: Callable[[], list[np.random.Generator]] | None = None,
        loss_scale: float = 1.0,
    ) -> list[float] | None:
        """Run one micro-step for all ranks; per-rank losses, or None.

        ``batches[rank]`` is rank's local :class:`~repro.data.batching.
        Batch`.  ``sample_rngs()`` returns this step's per-rank sample
        generators; it is called only for models the trainer's
        generators drive (``step_rng is None``) — building G generators
        costs more than a small model's whole stacked pass.  Returns
        ``None`` when this step cannot take the fast path (the caller
        must then run the per-rank loop — no RNG or gradient state has
        been consumed).
        """
        if self._disabled:
            return None
        reps = self.replicas
        R = len(reps)
        if len(batches) != R:
            return None
        flags = [m.training for m in self._modules[0]]
        for modules in self._modules[1:]:
            if [m.training for m in modules] != flags:
                return None
        shape = batches[0].inputs.shape
        for b in batches[1:]:
            if b.inputs.shape != shape or b.targets.shape != shape:
                return None
        m0 = reps[0]
        carries = m0.stateful and m0.training
        state = None
        if carries:
            # Stateful BPTT: the carry is per replica.
            states = [m._state for m in reps]
            if any((s is None) != (states[0] is None) for s in states[1:]):
                return None  # inconsistent carry — per-rank handles it
            if states[0] is not None:
                parts = [_parts(s) for s in states]
                shapes = [a.shape for a in parts[0]]
                if any([a.shape for a in p] != shapes for p in parts[1:]):
                    return None
                if shapes[0][0] == shape[0]:
                    state = tuple(np.stack(column) for column in zip(*parts))
                    if not isinstance(states[0], tuple):
                        state = state[0]
                # else: batch-size change — dropped, exactly like ``step``
        if not self._shares_storage():
            self._disable(
                "a replica's parameters diverged from rank 0's storage"
            )
            return None
        self._calls += 1

        # Preallocate-and-assign beats np.stack's per-item overhead at
        # G=512 (same bits: row-wise copies of the same arrays).
        inputs = np.empty((R,) + shape, dtype=batches[0].inputs.dtype)
        targets = np.empty((R,) + shape, dtype=batches[0].targets.dtype)
        for ri, b in enumerate(batches):
            inputs[ri] = b.inputs
            targets[ri] = b.targets
        rngs = self._own_rngs if self._own_rngs is not None else sample_rngs()
        losses, final = m0.forward_backward(
            inputs, targets, state, rngs, loss_scale
        )
        if carries:
            finals = _parts(final)
            for ri, m in enumerate(reps):
                own = tuple(a[ri].copy() for a in finals)
                m._state = own if isinstance(final, tuple) else own[0]
        for k, shared in enumerate(self._params[0]):
            stacked, shared.stacked_grads = shared.stacked_grads, []
            sparse = []
            for grad in stacked:
                if isinstance(grad, SparseGrad):
                    sparse.append(grad)
                else:
                    self._fan_out_dense(k, grad)
            if sparse:
                self._fan_out_sparse(k, sparse)
        return [float(x) for x in losses]

    def _fan_out_dense(self, k: int, block: np.ndarray) -> None:
        """Row ``r`` of a gradient block becomes replica ``r``'s grad.

        Rows are disjoint views of the block (fresh per call, so they
        stay valid until the sync consumes them); ``+`` on accumulation
        steps matches ``accumulate_grad``'s ``+=`` bit-for-bit, cast to
        the parameter dtype the same way.
        """
        p0 = self._params[0][k]
        dtype = p0.data.dtype
        owned = p0.grad is None
        cast = block if block.dtype == dtype else block.astype(dtype)
        for ri, params in enumerate(self._params):
            p = params[k]
            if p.grad is None:
                p.grad = cast[ri]
            else:
                p.grad = (p.grad + block[ri]).astype(dtype, copy=False)
        # Stacked-block hint for the dense allreduce: rows were handed
        # out in rank order, so the sync can reduce over the block
        # directly.  Accumulated grads (``old + new``) no longer alias
        # the block, which the sync's identity check detects — the hint
        # is only valid when this micro-step owns the grad.
        p0._grad_block = cast if owned else None

    def _fan_out_sparse(self, k: int, stacked: list[SparseGrad]) -> None:
        """One token-level sparse grad per replica from ``(R, N)`` stacks.

        A parameter's contributions of this micro-step (embedding rows,
        target rows, candidate rows — all three on a tied weight) are
        joined along the token axis in arrival order, the order the
        sync's own concatenation would produce, so their local reduction
        can be attached as one (lazy) ``_coalesced``.
        """
        if len(stacked) == 1:
            ids, vals = stacked[0].indices, stacked[0].values
        else:
            ids = np.concatenate([s.indices for s in stacked], axis=1)
            vals = np.concatenate([s.values for s in stacked], axis=1)
        reduction = _StackedCoalesce(ids, vals, self._params[0][k].data.shape[0])
        for ri, params in enumerate(self._params):
            sg = _sparse_grad(ids[ri], vals[ri])
            sg._coalesced = partial(reduction.rank, ri)
            params[k].sparse_grads.append(sg)


class _StackedCoalesce:
    """All ranks' local unique-reduce (steps 1-2) in one pass, on demand.

    Offsetting rank ``r``'s ids by ``r * vocab`` makes the per-rank id
    spaces disjoint, so one ``np.unique`` + one ``np.add.at`` computes
    every rank's sorted-unique types and summed rows.  Within a rank,
    tokens are visited in the same order as the per-rank
    ``SparseGrad.coalesce``, and cross-rank rows are disjoint — the
    per-rank results are bit-identical.  Each token-level gradient gets
    ``rank`` as its lazy ``_coalesced``: the pass runs when the sparse
    exchange first asks for one, and never on accumulation steps, whose
    micro-step gradients are concatenated before anything coalesces.
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
        for ri in range(R):  # mesh-ok: slicing per-rank segments of one host-side reduction
            stop = int(bounds[ri])
            self._reduced.append(
                _sparse_grad(uniq[start:stop] - ri * vocab, reduced[start:stop])
            )
            start = stop


#: The executor's former, char-LM-only name (``benchmarks/e2e/tracing.py``
#: resolves ``BatchedCharLMExecutor.step``).
BatchedCharLMExecutor = BatchedExecutor
