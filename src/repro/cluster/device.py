"""Simulated GPU devices with explicit memory accounting.

The paper's scaling argument hinges on *per-GPU memory footprint*: the
baseline ALLGATHER over dense embedding gradients needs ``G * K * D``
floats of temporary buffer on every GPU, which overflows a 12 GB Titan X
beyond 24 GPUs (Tables III and IV report ``*`` = out of memory).  To
reproduce that behaviour faithfully we model each device as a byte-exact
allocator with a hard capacity: every tensor the training stack or a
collective allocates is charged here, and exceeding the capacity raises
:class:`DeviceOOMError` exactly where the real run would have aborted.

The device also carries a compute-throughput description (peak FLOP/s
and an achieved-fraction) used by :mod:`repro.perf` to convert per-step
FLOP counts into simulated wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Allocation",
    "DeviceOOMError",
    "DeviceSpec",
    "ScopedAllocation",
    "SimulatedDevice",
    "TITAN_X",
    "V100",
    "charge_group",
    "release_group",
]


class DeviceOOMError(MemoryError):
    """Raised when an allocation would exceed a device's memory capacity.

    Mirrors a CUDA out-of-memory abort.  The message records the device,
    the failed request and the live footprint so benchmark tables can
    render the paper's ``*`` cells with a real diagnostic behind them.
    """

    def __init__(self, device: "SimulatedDevice", requested: int, tag: str):
        self.device_id = device.device_id
        self.requested = requested
        self.in_use = device.bytes_in_use
        self.capacity = device.spec.memory_bytes
        self.tag = tag
        super().__init__(
            f"device {device.device_id}: allocation of {requested} bytes "
            f"(tag={tag!r}) exceeds capacity: {self.in_use} in use of "
            f"{self.capacity} total"
        )


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a (simulated) accelerator.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"GeForce GTX Titan X"``.
    memory_bytes:
        Usable device memory.  The paper's Titan X has 12 GB.
    peak_flops:
        Peak single-precision throughput in FLOP/s.
    achieved_fraction:
        Fraction of peak a real kernel mix achieves.  The paper reports
        40% of peak for the word LM and 64% for the character LM; the
        performance model passes a workload-specific value, so this field
        is only a default.
    memory_bandwidth:
        Device-memory bandwidth in bytes/s — bounds the local
        scatter/update cost of applying gathered embedding gradients.
    """

    name: str
    memory_bytes: int
    peak_flops: float
    achieved_fraction: float = 0.40
    memory_bandwidth: float = 336e9

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.peak_flops <= 0:
            raise ValueError("peak_flops must be positive")
        if not 0.0 < self.achieved_fraction <= 1.0:
            raise ValueError("achieved_fraction must be in (0, 1]")
        if self.memory_bandwidth <= 0:
            raise ValueError("memory_bandwidth must be positive")

    @property
    def sustained_flops(self) -> float:
        """Realistic FLOP/s = peak * achieved fraction."""
        return self.peak_flops * self.achieved_fraction


#: The GPU used throughout the paper's evaluation (Table II).
TITAN_X = DeviceSpec(
    name="GeForce GTX Titan X",
    memory_bytes=12 * 1024**3,
    peak_flops=6.1e12,
)

#: The GPU used by the prior work the paper compares against (Puri et al.).
V100 = DeviceSpec(
    name="Tesla V100",
    memory_bytes=16 * 1024**3,
    peak_flops=125e12,  # tensor-core peak, as quoted in the paper
    achieved_fraction=0.40,
    memory_bandwidth=900e9,
)


@dataclass
class Allocation:
    """A live allocation on a device, freed via :meth:`SimulatedDevice.free`."""

    device_id: int
    nbytes: int
    tag: str
    freed: bool = False


@dataclass
class SimulatedDevice:
    """One simulated GPU: a capacity-limited byte allocator.

    Parameters
    ----------
    device_id:
        Global rank of this device in the cluster.
    spec:
        Hardware description (capacity, throughput).

    Notes
    -----
    Allocations are explicit (``alloc``/``free``) rather than tied to
    numpy array lifetimes: the simulator runs many ranks in one host
    process, so numpy's own allocator says nothing about what would fit
    on a 12 GB card.  Training code charges model parameters, optimizer
    state, activations and communication buffers here.
    """

    device_id: int
    spec: DeviceSpec
    bytes_in_use: int = 0
    peak_bytes: int = 0
    _live: dict[int, Allocation] = field(default_factory=dict)
    _next_handle: int = 0

    def alloc(self, nbytes: int, tag: str = "") -> int:
        """Charge ``nbytes`` against the device; return a handle for ``free``.

        Raises
        ------
        DeviceOOMError
            If the allocation would exceed the device capacity.
        ValueError
            If ``nbytes`` is negative.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if self.bytes_in_use + nbytes > self.spec.memory_bytes:
            raise DeviceOOMError(self, nbytes, tag)
        self.bytes_in_use += nbytes
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
        handle = self._next_handle
        self._next_handle += 1
        self._live[handle] = Allocation(self.device_id, nbytes, tag)
        return handle

    def free(self, handle: int) -> None:
        """Release a previous allocation.  Double-free raises ``KeyError``."""
        alloc = self._live.pop(handle)
        alloc.freed = True
        self.bytes_in_use -= alloc.nbytes
        assert self.bytes_in_use >= 0, "allocator accounting went negative"

    def live_allocations(self) -> list[Allocation]:
        """Snapshot of currently live allocations (debugging / leak tests)."""
        return list(self._live.values())

    @property
    def bytes_free(self) -> int:
        return self.spec.memory_bytes - self.bytes_in_use

    def would_fit(self, nbytes: int) -> bool:
        """Check whether an allocation of ``nbytes`` would succeed."""
        return nbytes >= 0 and self.bytes_in_use + nbytes <= self.spec.memory_bytes

    def reset_peak(self) -> None:
        """Reset the high-water mark to the current footprint."""
        self.peak_bytes = self.bytes_in_use


class ScopedAllocation:
    """Context manager charging a temporary buffer for the enclosed block.

    Collectives use this for their scratch space so that footprint spikes
    (the quantity that OOMs the baseline) register in ``peak_bytes`` even
    though the buffer is released before the call returns::

        with ScopedAllocation(device, nbytes, tag="allgather-recv"):
            ...  # do the exchange
    """

    def __init__(self, device: SimulatedDevice, nbytes: int, tag: str = ""):
        self._device = device
        self._nbytes = nbytes
        self._tag = tag
        self._handle: int | None = None

    def __enter__(self) -> "ScopedAllocation":
        self._handle = self._device.alloc(self._nbytes, self._tag)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._handle is not None:
            self._device.free(self._handle)
            self._handle = None


def charge_group(devices: list[SimulatedDevice], nbytes: int, tag: str = "") -> None:
    """Charge ``nbytes`` to every device, all or nothing.

    A collective's scratch is one buffer of the same size on every
    participant, live from issue to ``wait()``: it needs no per-device
    handle, only the footprint and the high-water mark.  Capacity is
    checked on the whole group first, so a :class:`DeviceOOMError`
    (naming the lowest rank that does not fit) leaves no device charged.
    """
    for dev in devices:
        if dev.bytes_in_use + nbytes > dev.spec.memory_bytes:
            raise DeviceOOMError(dev, nbytes, tag)
    for dev in devices:
        dev.bytes_in_use = used = dev.bytes_in_use + nbytes
        if used > dev.peak_bytes:
            dev.peak_bytes = used


def release_group(devices: list[SimulatedDevice], nbytes: int) -> None:
    """Undo one :func:`charge_group` of ``nbytes``."""
    for dev in devices:
        dev.bytes_in_use -= nbytes
        assert dev.bytes_in_use >= 0, "allocator accounting went negative"
