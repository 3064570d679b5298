"""Megatron-style tensor-parallel layers + a 1F1B pipeline schedule.

Intra-layer (tensor) parallelism from Megatron-LM (PAPERS.md,
1909.08053), expressed in the simulator's SPMD-in-one-process idiom:
each layer holds **all** of its shards (index = tensor-parallel rank),
exactly as the :class:`~repro.cluster.communicator.Communicator` holds
all ranks' arrays.  Numerics are real; the optional ``comm`` (a
communicator whose mesh is one tensor group) charges the tensor-axis
collectives each layer implies to the ledger and timeline.

* :class:`ColumnParallelLinear` — ``W`` split by output columns; the
  forward all-gathers shard outputs, the backward all-reduces input
  gradients.
* :class:`RowParallelLinear` — ``W`` split by input rows; the forward
  all-reduces partial sums.  ``Column ∘ Row`` is Megatron's two-matmul
  MLP block with one collective per direction.
* :class:`ParallelEmbedding` — vocabulary rows sharded; each shard
  contributes exact rows (zeros elsewhere) and the sum reassembles the
  gather **bit-exactly** (``x + 0.0 == x``).
* :class:`VocabParallelSampledSoftmax` — the crossover-study
  counterpart of the paper's uniqueness exchange: the output embedding
  is vocab-sharded, each shard scores the candidate columns it owns,
  and the logits are all-reduced.  Loss and gradients are bit-exact vs
  the unsharded :class:`~repro.nn.sampled_softmax.SampledSoftmaxLoss`.
* :class:`PipelineSchedule` — GPipe-style 1F1B micro-batch schedule
  with analytic makespan/bubble and timeline recording (compute per
  stage, activation transfers charged on the ``pipe`` axis).

Every sharded layer initializes its **full** parameter with the same
generator draw as the unsharded layer and then slices — so a sharded
model and its unsharded reference start from identical values, the
precondition of the bit-exactness property tests.
"""

from __future__ import annotations

import numpy as np

from . import init
from .dtypes import DTYPE
from .functional import cross_entropy_from_logits
from .module import Module
from .parameter import Parameter, SparseGrad
from .sampled_softmax import LogUniformSampler

__all__ = [
    "ColumnParallelLinear",
    "ParallelEmbedding",
    "PipelineSchedule",
    "RowParallelLinear",
    "VocabParallelSampledSoftmax",
    "shard_bounds",
]


def shard_bounds(total: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges splitting ``total`` rows into shards.

    Sizes differ by at most one (the first ``total % num_shards`` shards
    take the extra row), mirroring
    :func:`~repro.cluster.process_group.partition_ranks`.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if num_shards > total:
        raise ValueError(f"cannot split {total} rows into {num_shards} shards")
    base, extra = divmod(total, num_shards)
    bounds = []
    lo = 0
    for j in range(num_shards):
        hi = lo + base + (1 if j < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _tensor_allreduce(comm, arrays, tag):
    """Charge + run a tensor-axis allreduce; plain python sum when offline.

    Comm-substrate call: inherits the caller's ledger scope, and layer
    activations cross the tensor axis raw by design.
    """
    if comm is not None:
        return comm.axis("tensor").allreduce(arrays, tag=tag)
    acc = arrays[0].copy()
    for a in arrays[1:]:
        acc += a
    return [acc for _ in arrays]


def _tensor_allgather(comm, arrays, tag):
    """Charge a tensor-axis allgather; numerics are the caller's concat.

    Comm-substrate call: inherits the caller's ledger scope, and layer
    activations cross the tensor axis raw by design.
    """
    if comm is not None:
        comm.axis("tensor").allgather(arrays, tag=tag)


def _check_comm(comm, num_shards: int) -> None:
    if comm is None:
        return
    if comm.mesh.axis_size("tensor") != num_shards:
        raise ValueError(
            f"mesh tensor axis {comm.mesh.axis_size('tensor')} != "
            f"{num_shards} shards"
        )
    if comm.world_size != num_shards:
        raise ValueError(
            "tensor-parallel layers drive one tensor group: the mesh "
            f"must be tensor-only, got {comm.mesh.describe()}"
        )


class ColumnParallelLinear(Module):
    """``y = x @ W + b`` with ``W`` split by output columns.

    Shard ``j`` holds columns ``[j*w, (j+1)*w)`` of the same
    Xavier-initialized matrix :class:`~repro.nn.linear.Linear` would
    build; the forward concatenates shard outputs (the all-gather) and
    the backward all-reduces the input gradient partial sums.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_shards: int,
        rng: np.random.Generator,
        bias: bool = True,
        dtype: np.dtype = DTYPE,
        comm=None,
    ):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("dimensions must be positive")
        if num_shards <= 0 or out_dim % num_shards != 0:
            raise ValueError(
                f"out_dim {out_dim} must divide evenly into "
                f"{num_shards} column shards"
            )
        _check_comm(comm, num_shards)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_shards = num_shards
        self._comm = comm
        full = init.xavier_uniform((in_dim, out_dim), rng, dtype)
        width = out_dim // num_shards
        self._weights = []
        self._biases = []
        for j in range(num_shards):
            w = Parameter(
                full[:, j * width:(j + 1) * width].copy(),
                name=f"col_linear.weight{j}",
            )
            self.register_parameter(f"weight{j}", w)
            self._weights.append(w)
            if bias:
                b = Parameter(
                    init.zeros((width,), dtype), name=f"col_linear.bias{j}"
                )
                self.register_parameter(f"bias{j}", b)
                self._biases.append(b)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Per-shard matmuls + output all-gather (concatenation)."""
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"input dim {x.shape[-1]} != {self.in_dim}")
        parts = []
        for j, w in enumerate(self._weights):
            y = x @ w.data
            if self._biases:
                y += self._biases[j].data
            parts.append(y)
        _tensor_allgather(self._comm, parts, tag="col_linear.fwd")
        return np.concatenate(parts, axis=-1), {"x": x}

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        """Accumulate shard grads; all-reduce + return the input grad."""
        x = cache["x"]
        if grad_out.shape != x.shape[:-1] + (self.out_dim,):
            raise ValueError(f"bad grad shape {grad_out.shape}")
        x2d = x.reshape(-1, self.in_dim)
        g2d = grad_out.reshape(-1, self.out_dim)
        width = self.out_dim // self.num_shards
        partials = []
        for j, w in enumerate(self._weights):
            gj = g2d[:, j * width:(j + 1) * width]
            w.accumulate_grad(x2d.T @ gj)
            if self._biases:
                self._biases[j].accumulate_grad(gj.sum(axis=0))
            partials.append(gj @ w.data.T)
        reduced = _tensor_allreduce(
            self._comm, partials, tag="col_linear.bwd"
        )
        return reduced[0].reshape(x.shape)


class RowParallelLinear(Module):
    """``y = x @ W + b`` with ``W`` split by input rows.

    Shard ``j`` consumes input slice ``x[..., j*w:(j+1)*w]`` and holds
    the matching row block; partial outputs are summed by a tensor-axis
    all-reduce, after which the (unsharded) bias is added once.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_shards: int,
        rng: np.random.Generator,
        bias: bool = True,
        dtype: np.dtype = DTYPE,
        comm=None,
    ):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("dimensions must be positive")
        if num_shards <= 0 or in_dim % num_shards != 0:
            raise ValueError(
                f"in_dim {in_dim} must divide evenly into "
                f"{num_shards} row shards"
            )
        _check_comm(comm, num_shards)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_shards = num_shards
        self._comm = comm
        full = init.xavier_uniform((in_dim, out_dim), rng, dtype)
        width = in_dim // num_shards
        self._weights = []
        for j in range(num_shards):
            w = Parameter(
                full[j * width:(j + 1) * width, :].copy(),
                name=f"row_linear.weight{j}",
            )
            self.register_parameter(f"weight{j}", w)
            self._weights.append(w)
        self.bias: Parameter | None
        if bias:
            self.bias = Parameter(init.zeros((out_dim,), dtype),
                                  name="row_linear.bias")
        else:
            object.__setattr__(self, "bias", None)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Per-shard partial matmuls + all-reduced sum."""
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"input dim {x.shape[-1]} != {self.in_dim}")
        width = self.in_dim // self.num_shards
        partials = [
            x[..., j * width:(j + 1) * width] @ w.data
            for j, w in enumerate(self._weights)
        ]
        reduced = _tensor_allreduce(
            self._comm, partials, tag="row_linear.fwd"
        )
        y = reduced[0]
        if self.bias is not None:
            y = y + self.bias.data
        return y, {"x": x}

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        """Accumulate shard grads; return the (concatenated) input grad."""
        x = cache["x"]
        if grad_out.shape != x.shape[:-1] + (self.out_dim,):
            raise ValueError(f"bad grad shape {grad_out.shape}")
        g2d = grad_out.reshape(-1, self.out_dim)
        width = self.in_dim // self.num_shards
        x2d = x.reshape(-1, self.in_dim)
        parts = []
        for j, w in enumerate(self._weights):
            xj = x2d[:, j * width:(j + 1) * width]
            w.accumulate_grad(xj.T @ g2d)
            parts.append(g2d @ w.data.T)
        if self.bias is not None:
            self.bias.accumulate_grad(g2d.sum(axis=0))
        _tensor_allgather(self._comm, parts, tag="row_linear.bwd")
        return np.concatenate(parts, axis=-1).reshape(x.shape)


class ParallelEmbedding(Module):
    """Vocab-sharded lookup table: each shard owns a contiguous id range.

    Forward: every shard contributes the exact rows it owns and zeros
    elsewhere; the tensor-axis all-reduce reassembles the gather
    **bit-exactly** (adding an exact zero never perturbs a float).
    Backward: each shard records a sparse gradient for its owned tokens
    in *local* row coordinates.
    """

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        num_shards: int,
        rng: np.random.Generator,
        dtype: np.dtype = DTYPE,
        comm=None,
    ):
        super().__init__()
        if num_embeddings <= 0 or dim <= 0:
            raise ValueError("num_embeddings and dim must be positive")
        _check_comm(comm, num_shards)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.num_shards = num_shards
        self._comm = comm
        self.bounds = shard_bounds(num_embeddings, num_shards)
        full = init.uniform(
            (num_embeddings, dim), 1.0 / np.sqrt(dim), rng, dtype
        )
        self._weights = []
        for j, (lo, hi) in enumerate(self.bounds):
            w = Parameter(full[lo:hi].copy(), name=f"parallel_embedding.weight{j}")
            self.register_parameter(f"weight{j}", w)
            self._weights.append(w)

    def forward(self, token_ids: np.ndarray) -> tuple[np.ndarray, dict]:
        """Masked per-shard gathers + all-reduced reassembly."""
        token_ids = np.asarray(token_ids)
        if not np.issubdtype(token_ids.dtype, np.integer):
            raise ValueError("token ids must be integers")
        if token_ids.size and (
            token_ids.min() < 0 or token_ids.max() >= self.num_embeddings
        ):
            raise ValueError("token id out of vocabulary range")
        parts = []
        for (lo, hi), w in zip(self.bounds, self._weights):
            contrib = np.zeros(
                token_ids.shape + (self.dim,), dtype=w.data.dtype
            )
            mask = (token_ids >= lo) & (token_ids < hi)
            contrib[mask] = w.data[token_ids[mask] - lo]
            parts.append(contrib)
        reduced = _tensor_allreduce(
            self._comm, parts, tag="parallel_embedding.fwd"
        )
        return reduced[0], {"token_ids": token_ids}

    def backward(self, grad_out: np.ndarray, cache: dict) -> None:
        """Record per-shard sparse grads for owned tokens (local rows)."""
        token_ids = cache["token_ids"]
        expected = token_ids.shape + (self.dim,)
        if grad_out.shape != expected:
            raise ValueError(f"grad shape {grad_out.shape} != {expected}")
        ids = token_ids.reshape(-1).astype(np.int64)
        rows = grad_out.reshape(-1, self.dim)
        for (lo, hi), w in zip(self.bounds, self._weights):
            mask = (ids >= lo) & (ids < hi)
            w.accumulate_sparse_grad(
                SparseGrad(indices=ids[mask] - lo, values=rows[mask])
            )

    def gathered_weight(self) -> np.ndarray:
        """The full ``|V| x D`` matrix, reassembled from the shards."""
        return np.concatenate([w.data for w in self._weights], axis=0)


class VocabParallelSampledSoftmax(Module):
    """Sampled softmax with the output embedding sharded over the vocab.

    Each shard scores the candidate (and target) columns whose rows it
    owns; non-owned columns contribute exact zeros, so the tensor-axis
    logit all-reduce reassembles the unsharded score matrix bit-exactly
    — and loss, output-embedding row gradients, and ``dhidden`` all
    match :class:`~repro.nn.sampled_softmax.SampledSoftmaxLoss`
    bit-for-bit.  This is the model-parallel alternative the paper's
    uniqueness exchange is benchmarked against in
    ``bench_ablation_tensor_parallel.py``.
    """

    def __init__(
        self,
        vocab_size: int,
        hidden_dim: int,
        num_samples: int,
        num_shards: int,
        rng: np.random.Generator,
        dtype: np.dtype = DTYPE,
        comm=None,
    ):
        super().__init__()
        if vocab_size <= 1 or hidden_dim <= 0:
            raise ValueError("bad dimensions")
        if not 0 < num_samples < vocab_size:
            raise ValueError("need 0 < num_samples < vocab_size")
        _check_comm(comm, num_shards)
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.num_samples = num_samples
        self.num_shards = num_shards
        self._comm = comm
        self.sampler = LogUniformSampler(vocab_size)
        self.bounds = shard_bounds(vocab_size, num_shards)
        full = init.uniform(
            (vocab_size, hidden_dim), 1.0 / np.sqrt(hidden_dim), rng, dtype
        )
        self._weights = []
        for j, (lo, hi) in enumerate(self.bounds):
            w = Parameter(
                full[lo:hi].copy(), name=f"vocab_parallel_softmax.weight{j}"
            )
            self.register_parameter(f"weight{j}", w)
            self._weights.append(w)

    def _owned_rows(self, ids: np.ndarray) -> np.ndarray:
        """Reassemble ``E[ids]`` exactly: per-shard owned rows + zeros."""
        parts = []
        for (lo, hi), w in zip(self.bounds, self._weights):
            contrib = np.zeros((ids.size, self.hidden_dim), w.data.dtype)
            mask = (ids >= lo) & (ids < hi)
            contrib[mask] = w.data[ids[mask] - lo]
            parts.append(contrib)
        reduced = _tensor_allreduce(
            self._comm, parts, tag="vocab_softmax.rows"
        )
        return reduced[0]

    def forward(
        self,
        hidden: np.ndarray,
        targets: np.ndarray,
        sample_rng: np.random.Generator,
        sampled_ids: np.ndarray | None = None,
    ) -> tuple[float, dict]:
        """Shard-scored sampled-softmax NLL with all-reduced logits.

        Candidates are drawn once (globally) from ``sample_rng`` —
        identically to the unsharded layer — then each shard computes
        ``hidden @ E_j[candidates].T`` for its owned rows; the logit
        all-reduce reassembles the full score matrix.
        """
        if hidden.ndim != 2 or hidden.shape[1] != self.hidden_dim:
            raise ValueError(f"hidden must be (N, {self.hidden_dim})")
        targets = np.asarray(targets)
        if targets.shape != (hidden.shape[0],):
            raise ValueError("targets must be (N,)")
        if sampled_ids is None:
            sampled_ids = self.sampler.sample(self.num_samples, sample_rng)
        else:
            sampled_ids = np.asarray(sampled_ids, dtype=np.int64)
            if sampled_ids.ndim != 1:
                raise ValueError("sampled_ids must be 1-D")

        # Exact row reassembly (the "all-reduced logits" in matrix form:
        # owned rows + exact zeros, summed over shards).
        target_rows = self._owned_rows(targets.astype(np.int64))
        sampled_rows = self._owned_rows(sampled_ids)

        true_logit = (hidden * target_rows).sum(axis=1)
        true_logit = true_logit - self.sampler.expected_log_count(
            targets, self.num_samples
        )
        samp_logits = hidden @ sampled_rows.T
        samp_logits = samp_logits - self.sampler.expected_log_count(
            sampled_ids, self.num_samples
        )
        hit_mask = sampled_ids[None, :] == targets[:, None]
        samp_logits = np.where(hit_mask, -1e30, samp_logits)

        logits = np.concatenate([true_logit[:, None], samp_logits], axis=1)
        labels = np.zeros(hidden.shape[0], dtype=np.int64)
        loss, dlogits = cross_entropy_from_logits(logits, labels)
        cache = {
            "hidden": hidden,
            "targets": targets,
            "sampled_ids": sampled_ids,
            "dlogits": dlogits,
            "hit_mask": hit_mask,
            "target_rows": target_rows,
            "sampled_rows": sampled_rows,
        }
        return loss, cache

    def backward(self, cache: dict, loss_scale: float = 1.0) -> np.ndarray:
        """Accumulate per-shard sparse grads (local rows); return dhidden."""
        hidden = cache["hidden"]
        targets = cache["targets"].astype(np.int64)
        sampled_ids = cache["sampled_ids"]
        dlogits = cache["dlogits"]
        if loss_scale != 1.0:
            dlogits = dlogits * loss_scale
        d_true = dlogits[:, 0]
        d_samp = np.where(cache["hit_mask"], 0.0, dlogits[:, 1:])

        # dhidden uses the exactly-reassembled row matrices, so it is
        # bit-identical to the unsharded layer's computation.
        dhidden = (
            d_true[:, None] * cache["target_rows"]
            + d_samp @ cache["sampled_rows"]
        )

        true_values = d_true[:, None] * hidden
        samp_values = d_samp.T @ hidden
        for (lo, hi), w in zip(self.bounds, self._weights):
            t_mask = (targets >= lo) & (targets < hi)
            w.accumulate_sparse_grad(
                SparseGrad(
                    indices=targets[t_mask] - lo, values=true_values[t_mask]
                )
            )
            s_mask = (sampled_ids >= lo) & (sampled_ids < hi)
            w.accumulate_sparse_grad(
                SparseGrad(
                    indices=sampled_ids[s_mask] - lo,
                    values=samp_values[s_mask],
                )
            )
        return dhidden


class PipelineSchedule:
    """GPipe-style 1F1B micro-batch schedule for ``p`` pipeline stages.

    Analytic model (2104.04473 §2.2): with ``m`` micro-batches and
    per-micro forward/backward times ``f``/``b``, the steady-state 1F1B
    makespan is ``(m + p - 1) * (f + b)`` and the bubble fraction is
    ``(p - 1) / (m + p - 1)`` — gradient accumulation (more micros)
    amortizes the pipeline fill/drain.

    :meth:`record` places the schedule on a mesh communicator's
    timeline: every stage's ranks are charged its busy compute plus its
    fill/drain bubble, and each adjacent-stage boundary is charged
    ``m`` activation transfers on the ``pipe`` axis.
    """

    def __init__(
        self,
        num_stages: int,
        num_micro: int,
        fwd_time_s: float,
        bwd_time_s: float,
    ):
        if num_stages <= 0:
            raise ValueError("num_stages must be positive")
        if num_micro <= 0:
            raise ValueError("num_micro must be positive")
        if fwd_time_s < 0 or bwd_time_s < 0:
            raise ValueError("stage times must be >= 0")
        self.num_stages = num_stages
        self.num_micro = num_micro
        self.fwd_time_s = fwd_time_s
        self.bwd_time_s = bwd_time_s

    @property
    def makespan_s(self) -> float:
        """Analytic 1F1B makespan (fill + steady state + drain)."""
        return (self.num_micro + self.num_stages - 1) * (
            self.fwd_time_s + self.bwd_time_s
        )

    @property
    def bubble_fraction(self) -> float:
        """Idle share of each stage: ``(p-1) / (m+p-1)``."""
        return (self.num_stages - 1) / (self.num_micro + self.num_stages - 1)

    def record(
        self,
        comm,
        axis: str = "pipe",
        activation_bytes: int = 0,
        tag: str = "step",
    ) -> float:
        """Charge the schedule to ``comm``'s timeline; return the makespan.

        Every rank of stage ``s`` records its bubble (fill + drain,
        ``(p-1)*(f+b)`` total) and its busy time (``m*(f+b)``), so all
        compute clocks advance by the same analytic makespan; each of
        the ``p-1`` stage boundaries then charges ``m`` activation
        transfers of ``activation_bytes`` on the ``axis`` link.
        """
        mesh = comm.mesh
        if mesh.axis_size(axis) != self.num_stages:
            raise ValueError(
                f"mesh {axis!r} axis has {mesh.axis_size(axis)} stage(s), "
                f"schedule has {self.num_stages}"
            )
        timeline = comm.timeline
        axis_pos = mesh.axis_index(axis)
        per_micro = self.fwd_time_s + self.bwd_time_s
        bubble = (self.num_stages - 1) * per_micro
        busy = self.num_micro * per_micro
        for rank in range(mesh.size):  # mesh-ok: SPMD driver loop charging every simulated rank's stage clock
            stage = mesh.coords(rank)[axis_pos]
            if bubble > 0:
                timeline.record_compute(
                    rank, bubble, name=f"pipe-bubble:s{stage}"
                )
            timeline.record_compute(rank, busy, name=f"pipe-stage:s{stage}")
        if activation_bytes > 0:
            stage_link = comm.axis(axis)
            for boundary in range(self.num_stages - 1):
                for micro in range(self.num_micro):
                    stage_link.transfer(
                        activation_bytes,
                        tag=f"{tag}:act:{boundary}->{boundary + 1}:m{micro}",
                    )
        return self.makespan_s
