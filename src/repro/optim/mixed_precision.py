"""Mixed-precision training: FP16 parameters with FP32 master weights.

The paper's compression technique borrows its scaling trick from mixed-
precision *training* [33, 34]: keep the model (weights, activations,
gradients) in FP16 for speed and memory, but apply optimizer updates to
an FP32 **master copy** — per-step updates are often smaller than FP16's
resolution at the weight's magnitude, so updating FP16 weights directly
stalls learning ("update swamping").

:class:`MasterWeightOptimizer` wraps any of this package's optimizers:

1. gradients arrive in the model dtype (FP16 if the model is FP16);
2. they are up-cast and handed to the inner optimizer, which updates the
   FP32 master copy;
3. the master is cast back down into the live parameters.

Combine with :class:`~repro.optim.loss_scaler.StaticLossScaler` /
``DynamicLossScaler`` for the full recipe.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from ..nn.parameter import Parameter, SparseGrad

__all__ = ["MasterWeightOptimizer"]


class MasterWeightOptimizer:
    """Wrap an optimizer with FP32 master weights for low-precision models.

    Parameters
    ----------
    params:
        The live (possibly FP16) model parameters.
    inner_factory:
        ``f(master_params, lr) -> optimizer``; the inner optimizer sees
        FP32 shadow parameters and never touches the live ones directly.
    lr:
        Initial learning rate (mutable via the ``lr`` property).
    master_dtype:
        Precision of the master copy (FP32 default; FP64 for tests).
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        inner_factory: Callable,
        lr: float,
        master_dtype: np.dtype = np.float32,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        if not np.issubdtype(master_dtype, np.floating):
            raise ValueError("master_dtype must be floating point")
        self.masters = [
            Parameter(p.data.astype(master_dtype), name=f"{p.name}.master")
            for p in self.params
        ]
        self.inner = inner_factory(self.masters, lr)

    @property
    def lr(self) -> float:
        return self.inner.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.inner.lr = value

    def step(self) -> None:
        """Move gradients to the masters, update, cast back down."""
        master_dtype = self.masters[0].data.dtype
        for live, master in zip(self.params, self.masters):
            if live.grad is not None:
                master.accumulate_grad(live.grad.astype(master_dtype))
            for sparse in live.sparse_grads:
                master.accumulate_sparse_grad(
                    SparseGrad(
                        indices=sparse.indices,
                        values=sparse.values.astype(master_dtype),
                    )
                )
            live.zero_grad()
        self.inner.step()
        # Written in place: the live arrays may be bound by more than
        # one module (the trainer's data-parallel replicas).
        for live, master in zip(self.params, self.masters):
            live.data[...] = master.data

    def state_dict(self) -> dict:
        """Inner-optimizer state plus the master copies."""
        state = {f"inner/{k}": v for k, v in self.inner.state_dict().items()}
        for i, master in enumerate(self.masters):
            state[f"master{i}"] = master.data.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.inner.load_state_dict(
            {
                k[len("inner/"):]: v
                for k, v in state.items()
                if k.startswith("inner/")
            }
        )
        for i, (live, master) in enumerate(zip(self.params, self.masters)):
            data = state[f"master{i}"]
            if data.shape != master.data.shape:
                raise ValueError(f"master {i} has the wrong shape")
            master.data = data.copy()
            live.data[...] = master.data
