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

Whether a world stacks is decided once, when the executor is built:

* replicas must all be the same model class — one that defines
  ``forward_backward`` itself — with equal configs, and there must be
  two or more of them; otherwise no executor is built and the trainer
  runs the per-rank loop for the whole run.

Past that point a step never falls back.  A world that leaves the
proven envelope mid-run — a batch count that is not the replica count,
ragged batch shapes, training/eval flags that disagree across replicas,
an inconsistent carried state, or a replica whose parameter no longer
binds rank 0's array (a rebound ``p.data``) — is a bug, and the step
raises :class:`ReplicaMismatchError` naming the replica before any RNG
or gradient state is consumed.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from ..errors import ReproError
from .parameter import SparseGrad

__all__ = [
    "BatchedExecutor",
    "BatchedCharLMExecutor",
    "ReplicaMismatchError",
    "build_batched_executor",
]


class ReplicaMismatchError(ReproError, RuntimeError):
    """A replica left the stacked step's envelope mid-run (see the
    module docstring); the message names the replica."""


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
    because every replica binds the same arrays, which each step
    checks).  Gradients are accumulated into **each** replica's
    parameters, so gradient sync, the optimizer, loss scaling and
    telemetry all see the same state the per-rank loop would produce.
    """

    def __init__(self, replicas):
        if len(replicas) < 2:
            raise ValueError("batched execution needs at least two replicas")
        self.replicas = replicas
        # Module structure is fixed after construction: walk it once.
        self._params = [list(m.parameters()) for m in replicas]
        self._other_params = [p for ps in self._params[1:] for p in ps]
        self._modules = [list(m.modules()) for m in replicas]
        own = [m.step_rng for m in replicas]
        self._own_rngs = None if own[0] is None else own

    def _check_shared_storage(self) -> None:
        """Every replica's parameters must still bind rank 0's arrays.

        An identity check per parameter (no array is read) over one flat
        list; the offending replica is looked for only once it failed.
        """
        base = [p.data for p in self._params[0]]
        if all(
            p.data is data
            for p, data in zip(self._other_params, base * (len(self._params) - 1))
        ):
            return
        for ri, params in enumerate(self._params[1:], start=1):
            for k, (p, data) in enumerate(zip(params, base)):
                if p.data is not data:
                    raise ReplicaMismatchError(
                        f"replica {ri}: parameter #{k} no longer binds "
                        "replica 0's array (its p.data was rebound); the "
                        "stacked step would run it on replica 0's weights"
                    )

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
        generators drive (``step_rng is None``) — building G generators
        costs more than a small model's whole stacked pass.  A world
        that cannot stack raises :class:`ReplicaMismatchError` before
        any RNG or gradient state has been consumed.
        """
        reps = self.replicas
        R = len(reps)
        if len(batches) != R:
            raise ReplicaMismatchError(
                f"{len(batches)} batches for {R} replicas: replica "
                f"{min(len(batches), R)} has no partner"
            )
        flags = [m.training for m in self._modules[0]]
        for ri, modules in enumerate(self._modules[1:], start=1):
            if [m.training for m in modules] != flags:
                raise ReplicaMismatchError(
                    f"replica {ri}: train/eval flags differ from replica 0's"
                )
        shape = batches[0].inputs.shape
        for ri, b in enumerate(batches[1:], start=1):
            if b.inputs.shape != shape or b.targets.shape != shape:
                raise ReplicaMismatchError(
                    f"replica {ri}: batch shape {b.inputs.shape} is not "
                    f"replica 0's {shape}"
                )
        m0 = reps[0]
        carries = m0.stateful and m0.training
        state = None
        if carries:
            # Stateful BPTT: the carry is per replica.
            states = [m._state for m in reps]
            parts = None if states[0] is None else [_parts(s) for s in states]
            shapes = None if parts is None else [a.shape for a in parts[0]]
            for ri, s in enumerate(states[1:], start=1):
                if (s is None) != (parts is None) or (
                    parts is not None and [a.shape for a in parts[ri]] != shapes
                ):
                    raise ReplicaMismatchError(
                        f"replica {ri}: carried state is inconsistent "
                        "with replica 0's"
                    )
            if parts is not None and parts[0][0].shape[0] == shape[0]:
                state = tuple(np.stack(column) for column in zip(*parts))
                if not isinstance(states[0], tuple):
                    state = state[0]
            # else: batch-size change — dropped, exactly like ``step``
        self._check_shared_storage()

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
        for ri in range(R):
            stop = int(bounds[ri])
            self._reduced.append(
                _sparse_grad(uniq[start:stop] - ri * vocab, reduced[start:stop])
            )
            start = stop


#: The executor's former, char-LM-only name (``benchmarks/e2e/tracing.py``
#: resolves ``BatchedCharLMExecutor.step``).
BatchedCharLMExecutor = BatchedExecutor
