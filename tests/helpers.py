"""Shared test utilities: gradient checking, fault plans, state comparison."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.cluster import ChaosCommunicator, FaultEvent, FaultKind, FaultPlan


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


def transient_events(plan: FaultPlan) -> tuple[FaultEvent, ...]:
    """The plan's ``TRANSIENT_LINK`` events, in schedule order."""
    return tuple(e for e in plan.events if e.kind is FaultKind.TRANSIENT_LINK)


def permanent_events(plan: FaultPlan) -> tuple[FaultEvent, ...]:
    """The plan's ``RANK_LOSS`` events, in schedule order."""
    return tuple(e for e in plan.events if e.kind is FaultKind.RANK_LOSS)


def only_transient(plan: FaultPlan) -> FaultPlan:
    """A copy of ``plan`` without its rank losses: a transient-only plan
    must leave the final weights bit-identical to a fault-free run."""
    return FaultPlan(
        [e for e in plan.events if e.kind is not FaultKind.RANK_LOSS],
        seed=plan.seed,
    )


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

