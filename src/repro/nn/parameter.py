"""Parameters and sparse gradients.

The distinction at the heart of the paper is between parameters with
**dense** gradients (RNN weights — synchronized with a plain ALLREDUCE)
and embedding matrices with **sparse, row-indexed** gradients (each
training step touches only the rows of the types present in the batch).
:class:`SparseGrad` is the (indices, values) pair a backward pass emits
for an embedding; how it is exchanged across GPUs — dense ALLGATHER
baseline vs the paper's unique-ALLREDUCE — is the core contribution,
implemented in :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Parameter", "SparseGrad"]


@dataclass
class SparseGrad:
    """Row-sparse gradient for an embedding matrix.

    ``values[i]`` is the gradient of row ``indices[i]``; indices may
    repeat (one entry per *token*, not per *type*) — duplicates must be
    **summed** on application, matching the accumulation semantics of
    embedding back-propagation described in Section II-A.

    A backward pass over stacked replicas emits all of them at once:
    ``indices`` is then ``(R, N)`` and ``values`` ``(R, N, D)``, row
    ``r`` being replica ``r``'s ordinary gradient.  Only
    :meth:`Parameter.accumulate_sparse_grad` accepts that form (it is
    split per replica before anything coalesces or applies it).
    """

    indices: np.ndarray
    values: np.ndarray
    #: The coalesced form when a producer already knows it (or a
    #: zero-argument callable yielding it); see :meth:`coalesce`.  Not a
    #: dataclass field — never part of construction or equality.
    _coalesced = None

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices)
        self.values = np.asarray(self.values)
        if self.indices.ndim not in (1, 2):
            raise ValueError("indices must be 1-D (2-D with a replica axis)")
        if self.values.ndim != self.indices.ndim + 1:
            raise ValueError("values must be 2-D (tokens x dim)")
        if self.indices.shape != self.values.shape[:-1]:
            raise ValueError(
                f"{self.indices.shape[-1]} indices vs {self.values.shape[-2]} rows"
            )
        if not np.issubdtype(self.indices.dtype, np.integer):
            raise ValueError("indices must be integers")

    @classmethod
    def _unsafe(cls, indices: np.ndarray, values: np.ndarray) -> "SparseGrad":
        """Construct without validation — hot-path internal use only.

        ``__post_init__``'s dtype/shape checks cost more than the rest of
        a per-rank loop iteration at G=512; producers whose invariants
        hold by construction (fan-out of an already-validated exchange,
        the batched executor's own gradients) skip them.
        """
        sg = cls.__new__(cls)
        sg.indices = indices
        sg.values = values
        return sg

    @property
    def n_tokens(self) -> int:
        return int(self.indices.size)

    @property
    def dim(self) -> int:
        return int(self.values.shape[-1])

    @property
    def is_coalesced(self) -> bool:
        """Whether :meth:`coalesce` is already known (no reduction runs)."""
        return self._coalesced is not None

    def mark_coalesced(self) -> "SparseGrad":
        """Declare the indices sorted ascending and unique; returns self.

        Only a producer that can prove it may call this (the unique
        exchange's result, a row-range slice of a coalesced gradient):
        :meth:`coalesce` then hands back these very rows instead of
        re-running ``np.unique`` + ``np.add.at`` over them.
        """
        # A twin, not ``self``: a self-reference would keep the arrays
        # alive until the cyclic garbage collector runs.
        self._coalesced = SparseGrad._unsafe(self.indices, self.values)
        return self

    def coalesce(self) -> "SparseGrad":
        """Sum duplicate indices — the paper's step-2 'local reduction'.

        Returns a new :class:`SparseGrad` whose indices are unique and
        sorted ascending.  This is the per-GPU Ui x D matrix of the
        uniqueness algorithm.  A producer that already knows the reduced
        form may pre-attach it as ``_coalesced`` — or a zero-argument
        callable that yields it on first use (the batched executor
        reduces all ranks in one vectorized pass, but only if somebody
        asks); the result is bit-identical either way.
        """
        cached = self._coalesced
        if callable(cached):
            cached = self._coalesced = cached()
        if cached is not None:
            return cached
        unique, inverse = np.unique(self.indices, return_inverse=True)
        reduced = np.zeros((unique.size, self.values.shape[1]), self.values.dtype)
        np.add.at(reduced, inverse, self.values)
        return SparseGrad(indices=unique, values=reduced)

    def to_dense(self, num_rows: int) -> np.ndarray:
        """Materialize as a full ``num_rows x dim`` gradient (tests only)."""
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if self.indices.size and self.indices.max() >= num_rows:
            raise ValueError("index out of range for num_rows")
        if self.indices.size and self.indices.min() < 0:
            raise ValueError("negative index")
        dense = np.zeros((num_rows, self.values.shape[1]), self.values.dtype)
        np.add.at(dense, self.indices, self.values)
        return dense


class Parameter:
    """A learnable tensor with a dense and/or sparse gradient slot.

    ``grad`` accumulates dense gradients (``+=`` semantics across
    backward calls); ``sparse_grads`` collects :class:`SparseGrad`
    contributions for embedding-style parameters.  A parameter may
    receive both within one step only if it participates in both kinds
    of computation (the tied-embedding case); the optimizer applies them
    additively.

    A backward pass run once over ``R`` stacked replicas (shared weights
    broadcast over ``(R, ...)`` activations) hands in every replica's
    gradient together: a dense ``(R, *shape)`` block, or a
    :class:`SparseGrad` with a leading replica axis.  Those wait in
    ``stacked_grads``, in arrival order, for the batched driver
    (:mod:`repro.nn.batched`) to fan row ``r`` out to replica ``r``'s
    own parameter; they never touch this parameter's ``grad``.
    """

    def __init__(self, data: np.ndarray, name: str = ""):
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.floating):
            raise ValueError("parameters must be floating point")
        self.data = data
        self.name = name
        self.grad: np.ndarray | None = None
        self.sparse_grads: list[SparseGrad] = []
        self.stacked_grads: list[np.ndarray | SparseGrad] = []
        # Set by the batched driver on rank 0's parameter: the (R, ...)
        # block whose rows are the replicas' ``grad``, for the dense
        # allreduce to reduce over directly (it verifies the aliasing).
        self._grad_block: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add a dense gradient contribution (or park a replica block)."""
        if grad.shape[1:] == self.data.shape and grad.ndim > self.data.ndim:
            self.stacked_grads.append(grad)
            return
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != parameter shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def accumulate_sparse_grad(self, sparse: SparseGrad) -> None:
        """Record a sparse (row-indexed) gradient contribution."""
        if self.data.ndim != 2:
            raise ValueError("sparse gradients apply to 2-D parameters only")
        if sparse.dim != self.data.shape[1]:
            raise ValueError(
                f"sparse grad dim {sparse.dim} != embedding dim {self.data.shape[1]}"
            )
        if sparse.indices.size and sparse.indices.max() >= self.data.shape[0]:
            raise ValueError("sparse grad row index out of range")
        if sparse.indices.ndim == 2:
            self.stacked_grads.append(sparse)
        else:
            self.sparse_grads.append(sparse)

    def merged_sparse_grad(self) -> SparseGrad | None:
        """All sparse contributions of this step, coalesced; None if none."""
        if not self.sparse_grads:
            return None
        if len(self.sparse_grads) == 1:
            return self.sparse_grads[0].coalesce()
        indices = np.concatenate([s.indices for s in self.sparse_grads])
        values = np.concatenate([s.values for s in self.sparse_grads])
        return SparseGrad(indices, values).coalesce()

    def zero_grad(self) -> None:
        self.grad = None
        self.sparse_grads = []
        self.stacked_grads = []
        self._grad_block = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"
