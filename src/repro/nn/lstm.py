"""LSTM layer with truncated-BPTT backward.

The paper's word LM is one LSTM layer with 2048 cells plus a 512-dim
projection (following Jozefowicz et al.).  The implementation is
batch-vectorized: the only Python loop is over the ``T`` time steps,
with all gate math fused into one ``(B, 4H)`` matmul per step.

Gate ordering within the fused weight matrices is ``[i, f, g, o]``
(input, forget, candidate, output).
"""

from __future__ import annotations

import numpy as np

from . import init
from .dtypes import DTYPE
from .functional import dsigmoid, dtanh, row_matmul, sigmoid, tanh
from .module import Module
from .parameter import Parameter

__all__ = ["LSTM"]


class LSTM(Module):
    """Single-layer LSTM over ``(B, T, input_dim)`` sequences.

    Parameters
    ----------
    input_dim, hidden_dim:
        Input feature size and cell count.
    rng:
        Initialization generator — Xavier for input weights, orthogonal
        for recurrent weights, forget-gate bias = 1 (the standard
        trainability trick).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        dtype: np.dtype = DTYPE,
    ):
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("dimensions must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h = hidden_dim
        self.w_x = Parameter(
            init.xavier_uniform((input_dim, 4 * h), rng, dtype), name="lstm.w_x"
        )
        self.w_h = Parameter(
            np.concatenate(
                [init.orthogonal((h, h), rng, dtype=dtype) for _ in range(4)], axis=1
            ),
            name="lstm.w_h",
        )
        bias = init.zeros((4 * h,), dtype)
        bias[h : 2 * h] = 1.0  # forget gate bias
        self.bias = Parameter(bias, name="lstm.bias")

    def step(
        self,
        x: np.ndarray,
        state: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """One decode time step over a ``(B, input_dim)`` batch of rows.

        The inference kernel for the serving path: all matmuls go through
        :func:`~repro.nn.functional.row_matmul`, so row ``r`` of the
        output depends only on row ``r`` of ``x`` and ``state`` — the
        result is bit-identical whatever batch the row is scheduled into.
        Returns ``(h, (h, c))``; no caches, no gradients.
        """
        H = self.hidden_dim
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected (B, {self.input_dim}), got {x.shape}")
        h_prev, c_prev = state
        if h_prev.shape != x.shape[:1] + (H,) or c_prev.shape != h_prev.shape:
            raise ValueError("state shape does not match the batch")
        z = row_matmul(x, self.w_x.data) + self.bias.data
        z += row_matmul(h_prev, self.w_h.data)
        # One sigmoid over all four blocks: elementwise, so i/f/o are the
        # bits of three strided calls; the unused g block costs less than one.
        gates = sigmoid(z)
        g = tanh(z[:, 2 * H : 3 * H])
        c = gates[:, H : 2 * H] * c_prev + gates[:, :H] * g
        h = gates[:, 3 * H :] * tanh(c)
        return h, (h, c)

    def forward(
        self,
        x: np.ndarray,
        state: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Run the sequence; returns ``(hidden_states, cache)``.

        ``x`` is ``(B, T, input_dim)``, or ``(R, B, T, input_dim)`` for
        ``R`` stacked replicas sharing these weights; every shape below
        gains the same leading ``R``.  ``hidden_states`` has shape
        ``(B, T, H)``.  ``state`` is an optional ``(h0, c0)`` carry-in
        of shape ``(B, H)`` each (for stateful truncated BPTT across
        windows); the carried state is treated as constant (gradients
        are truncated at the window edge, matching standard LM
        training).  The final state is available in
        ``cache["final_state"]``.
        """
        if x.ndim not in (3, 4) or x.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected ([R,] B, T, {self.input_dim}), got {x.shape}"
            )
        *lead, T, _ = x.shape
        lead = tuple(lead)  # (B,) or (R, B)
        H = self.hidden_dim
        dtype = self.w_x.data.dtype
        if state is None:
            h_prev = np.zeros(lead + (H,), dtype)
            c_prev = np.zeros(lead + (H,), dtype)
        else:
            h_prev, c_prev = state
            if h_prev.shape != lead + (H,) or c_prev.shape != lead + (H,):
                raise ValueError("carried state has wrong shape")
            h_prev = h_prev.astype(dtype, copy=True)
            c_prev = c_prev.astype(dtype, copy=True)
        h0, c0 = (h_prev if state is None else state[0]), c_prev

        # Hoist the input projection out of the time loop: one big matmul
        # (per replica: the shared weight broadcasts over the stack).
        rows = lead[:-1] + (lead[-1] * T,)
        x_proj = x.reshape(rows + (-1,)) @ self.w_x.data + self.bias.data
        x_proj = x_proj.reshape(lead + (T, 4 * H))

        hs = np.empty(lead + (T, H), dtype)
        gates = np.empty(lead + (T, 4 * H), dtype)  # post-activation i,f,g,o
        cells = np.empty(lead + (T, H), dtype)

        for t in range(T):
            z = x_proj[..., t, :] + h_prev @ self.w_h.data
            i = sigmoid(z[..., :H])
            f = sigmoid(z[..., H : 2 * H])
            g = tanh(z[..., 2 * H : 3 * H])
            o = sigmoid(z[..., 3 * H :])
            c = f * c_prev + i * g
            h = o * tanh(c)
            gates[..., t, :H] = i
            gates[..., t, H : 2 * H] = f
            gates[..., t, 2 * H : 3 * H] = g
            gates[..., t, 3 * H :] = o
            cells[..., t, :] = c
            hs[..., t, :] = h
            h_prev, c_prev = h, c

        cache = {
            "x": x,
            "hs": hs,
            "gates": gates,
            "cells": cells,
            "h0": h0,
            "c0": c0,
            "final_state": (h_prev.copy(), c_prev.copy()),
        }
        return hs, cache

    def backward(self, grad_hs: np.ndarray, cache: dict) -> np.ndarray:
        """BPTT; accumulates weight grads, returns grad w.r.t. input x.

        Consumes ``cache``: each step's gate activations are overwritten
        by the pre-activation gradients they produce (the window's
        ``dz`` needs exactly their storage, and at 4H per token it is
        the layer's largest array), so a cache serves one backward.
        """
        x, hs = cache["x"], cache["hs"]
        gates, cells = cache["gates"], cache["cells"]
        *lead, T, H = hs.shape
        lead = tuple(lead)
        if grad_hs.shape != hs.shape:
            raise ValueError(f"grad shape {grad_hs.shape} != {hs.shape}")

        dh_next = np.zeros(lead + (H,), hs.dtype)
        dc_next = np.zeros(lead + (H,), hs.dtype)
        w_h = self.w_h.data

        for t in range(T - 1, -1, -1):
            i = gates[..., t, :H]
            f = gates[..., t, H : 2 * H]
            g = gates[..., t, 2 * H : 3 * H]
            o = gates[..., t, 3 * H :]
            c = cells[..., t, :]
            tanh_c = np.tanh(c)

            dh = grad_hs[..., t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * dtanh(tanh_c) + dc_next
            di = dc * g
            df = dc * (cells[..., t - 1, :] if t else cache["c0"])
            dg = dc * i
            dc_next = dc * f

            # From here on this step's gates are dead: dz takes their place.
            dz = gates[..., t, :]
            dz[..., :H] = di * dsigmoid(i)
            dz[..., H : 2 * H] = df * dsigmoid(f)
            dz[..., 2 * H : 3 * H] = dg * dtanh(g)
            dz[..., 3 * H :] = do * dsigmoid(o)

            dh_next = dz @ w_h.T

        # Weight gradients as two big matmuls over the whole window
        # (one pair per replica when stacked); ``gates`` holds dz by now.
        rows = lead[:-1] + (lead[-1] * T,)
        dz2d = gates.reshape(rows + (4 * H,))
        x2d = x.reshape(rows + (-1,))
        self.w_x.accumulate_grad(np.matmul(x2d.swapaxes(-1, -2), dz2d))
        h_prev_seq = np.concatenate(
            [cache["h0"][..., None, :], hs[..., :-1, :]], axis=-2
        ).reshape(rows + (H,))
        self.w_h.accumulate_grad(np.matmul(h_prev_seq.swapaxes(-1, -2), dz2d))
        self.bias.accumulate_grad(dz2d.sum(axis=-2))
        return np.matmul(dz2d, self.w_x.data.T).reshape(x.shape)
