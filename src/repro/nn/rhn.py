"""Recurrent Highway Network (RHN) layer.

The paper's character LM (Section IV-B) is an RHN of recurrence depth 10
with 1792 cells, after Zilly et al. / Hestness et al. [38].  An RHN step
stacks ``depth`` highway micro-layers inside each time step:

.. math::

    h_l = \\tanh(W_H x_t \\cdot [l{=}1] + R_{H,l} s_{l-1} + b_{H,l}) \\\\
    t_l = \\sigma(W_T x_t \\cdot [l{=}1] + R_{T,l} s_{l-1} + b_{T,l}) \\\\
    s_l = h_l \\odot t_l + s_{l-1} \\odot (1 - t_l)

with the carry gate coupled to the transform gate (``c = 1 - t``), and
the input injected only at the first micro-layer.  The time-step output
is the final micro-layer state ``s_L``.

Transform-gate biases start negative (-2) so early training passes state
through, the standard highway trick.
"""

from __future__ import annotations

import numpy as np

from . import init
from .dtypes import DTYPE
from .functional import dsigmoid, dtanh, row_matmul, sigmoid, tanh
from .module import Module
from .parameter import Parameter

__all__ = ["RHN"]


class RHN(Module):
    """Recurrent highway layer over ``(B, T, input_dim)`` sequences.

    Parameters
    ----------
    input_dim, hidden_dim:
        Input feature size and state width.
    depth:
        Recurrence depth (micro-layers per time step); the paper uses 10.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        depth: int,
        rng: np.random.Generator,
        dtype: np.dtype = DTYPE,
    ):
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("dimensions must be positive")
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.depth = depth
        H = hidden_dim
        # Fused [h | t] input projection, first micro-layer only.
        self.w_x = Parameter(
            init.xavier_uniform((input_dim, 2 * H), rng, dtype), name="rhn.w_x"
        )
        # Per-micro-layer recurrent weights, fused [h | t]: (L, H, 2H).
        rec = np.stack(
            [
                np.concatenate(
                    [
                        init.orthogonal((H, H), rng, dtype=dtype),
                        init.orthogonal((H, H), rng, dtype=dtype),
                    ],
                    axis=1,
                )
                for _ in range(depth)
            ]
        )
        self.r = Parameter(rec, name="rhn.r")
        bias = np.zeros((depth, 2 * H), dtype)
        bias[:, H:] = -2.0  # open carry gates initially
        self.bias = Parameter(bias, name="rhn.bias")

    def step(
        self, x: np.ndarray, state: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One decode time step over a ``(B, input_dim)`` batch of rows.

        Inference kernel for the serving path, mirroring
        :meth:`repro.nn.lstm.LSTM.step`: every matmul runs through
        :func:`~repro.nn.functional.row_matmul` so each row's output is
        bit-identical regardless of the batch it rides in.  Returns
        ``(s, s)`` — the RHN's per-step output *is* its new state.
        """
        H, L = self.hidden_dim, self.depth
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected (B, {self.input_dim}), got {x.shape}")
        if state.shape != x.shape[:1] + (H,):
            raise ValueError("state shape does not match the batch")
        x_proj = row_matmul(x, self.w_x.data)
        s = state
        for l in range(L):
            z = row_matmul(s, self.r.data[l]) + self.bias.data[l]
            if l == 0:
                z = z + x_proj
            h = tanh(z[:, :H])
            tg = sigmoid(z[:, H:])
            s = h * tg + s * (1.0 - tg)
        return s, s

    def forward(
        self, x: np.ndarray, state: np.ndarray | None = None
    ) -> tuple[np.ndarray, dict]:
        """Returns ``(outputs, cache)`` with outputs of shape ``(B, T, H)``.

        ``x`` is ``(B, T, input_dim)``, or ``(R, B, T, input_dim)`` for
        ``R`` stacked replicas sharing these weights; every shape then
        gains the same leading ``R``.  ``state`` is an optional
        ``(B, H)`` carry-in (gradient-truncated at the window edge).
        Final state in ``cache["final_state"]``.
        """
        if x.ndim not in (3, 4) or x.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected ([R,] B, T, {self.input_dim}), got {x.shape}"
            )
        *lead, T, _ = x.shape
        lead = tuple(lead)  # (B,) or (R, B)
        H, L = self.hidden_dim, self.depth
        dtype = self.w_x.data.dtype
        s = (
            np.zeros(lead + (H,), dtype)
            if state is None
            else state.astype(dtype, copy=True)
        )
        if s.shape != lead + (H,):
            raise ValueError("carried state has wrong shape")

        rows = lead[:-1] + (lead[-1] * T,)
        x_proj = (x.reshape(rows + (-1,)) @ self.w_x.data).reshape(
            lead + (T, 2 * H)
        )

        outputs = np.empty(lead + (T, H), dtype)
        # caches indexed [t][l]
        h_cache = np.empty(lead + (T, L, H), dtype)
        t_cache = np.empty(lead + (T, L, H), dtype)
        s_in_cache = np.empty(lead + (T, L, H), dtype)

        for t in range(T):
            for l in range(L):
                z = s @ self.r.data[l] + self.bias.data[l]
                if l == 0:
                    z = z + x_proj[..., t, :]
                h = tanh(z[..., :H])
                tg = sigmoid(z[..., H:])
                s_in_cache[..., t, l, :] = s
                h_cache[..., t, l, :] = h
                t_cache[..., t, l, :] = tg
                s = h * tg + s * (1.0 - tg)
            outputs[..., t, :] = s

        cache = {
            "x": x,
            "h": h_cache,
            "t": t_cache,
            "s_in": s_in_cache,
            "final_state": s.copy(),
        }
        return outputs, cache

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        """BPTT through time and depth; returns grad w.r.t. input x."""
        x = cache["x"]
        h_cache, t_cache, s_in = cache["h"], cache["t"], cache["s_in"]
        *lead, T, L, H = h_cache.shape
        lead = tuple(lead)
        if grad_out.shape != lead + (T, H):
            raise ValueError(f"grad shape {grad_out.shape} != {lead + (T, H)}")

        replicas = lead[:-1]  # () or (R,): one weight gradient per replica
        dw_x = np.zeros(replicas + self.w_x.shape, self.w_x.dtype)
        dr = np.zeros(replicas + self.r.shape, self.r.dtype)
        dbias = np.zeros(replicas + self.bias.shape, self.bias.dtype)
        dx = np.empty_like(x)
        ds = np.zeros(lead + (H,), x.dtype)

        for t in range(T - 1, -1, -1):
            ds = ds + grad_out[..., t, :]
            for l in range(L - 1, -1, -1):
                h = h_cache[..., t, l, :]
                tg = t_cache[..., t, l, :]
                s_prev = s_in[..., t, l, :]
                dh = ds * tg
                dtg = ds * (h - s_prev)
                dz_h = dh * dtanh(h)
                dz_t = dtg * dsigmoid(tg)
                dz = np.concatenate([dz_h, dz_t], axis=-1)
                dr[..., l, :, :] += np.matmul(s_prev.swapaxes(-1, -2), dz)
                dbias[..., l, :] += dz.sum(axis=-2)
                ds = ds * (1.0 - tg) + dz @ self.r.data[l].T
                if l == 0:
                    # dz is the gradient into x_proj[..., t, :]
                    dx[..., t, :] = dz @ self.w_x.data.T
                    dw_x += np.matmul(x[..., t, :].swapaxes(-1, -2), dz)

        self.w_x.accumulate_grad(dw_x)
        self.r.accumulate_grad(dr)
        self.bias.accumulate_grad(dbias)
        return dx
