"""Shared test utilities: gradient checking, crash plans, state comparison."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.cluster import ChaosCommunicator, FaultEvent, FaultKind, FaultPlan
from repro.nn.parameter import Parameter


def assert_same_state(got: dict, want: dict, what: str = "state") -> None:
    """Two ``state_dict()``s agree bit for bit, key for key."""
    assert got.keys() == want.keys(), what
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(
                got[key], value, err_msg=f"{what} {key}"
            )
        else:
            assert got[key] == value, f"{what} {key}"


def crashing_comm(
    world: int, crash_at: int, rank: int = 0, **kwargs
) -> ChaosCommunicator:
    """A communicator whose ``rank`` dies at collective ``#crash_at``.

    The "node crashes mid-step" scenario as a one-event fault plan.
    """
    crash = FaultEvent(FaultKind.RANK_LOSS, collective_index=crash_at, rank=rank)
    return ChaosCommunicator(world, plan=FaultPlan([crash]), **kwargs)


def numerical_grad(
    f: Callable[[], float], array: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array``.

    Mutates ``array`` in place during probing and restores it.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_param_grad(
    f: Callable[[], float],
    param: Parameter,
    analytic: np.ndarray,
    eps: float = 1e-6,
    rtol: float = 1e-5,
    atol: float = 1e-7,
) -> None:
    """Assert the analytic gradient of ``param`` matches finite differences."""
    numeric = numerical_grad(f, param.data, eps=eps)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)
