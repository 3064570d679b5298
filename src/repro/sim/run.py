"""End-to-end simulated cluster runs: one call, one report.

:class:`SimulatedRun` wires together everything the library models —
real SPMD training for accuracy, the communicator's ledger for wire
volume and alpha-beta time, and the per-device allocators for memory
(including persistent model/optimizer footprints, so OOM happens exactly
where a real cluster of the given devices would abort).

The resulting :class:`RunReport` is the simulated analogue of "what the
job's logs would say": perplexity trajectory, communication breakdown,
peak memory, and whether the configuration fits at all.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..cluster.communicator import Communicator
from ..cluster.device import DeviceOOMError, DeviceSpec, TITAN_X
from ..data.corpus import SyntheticCorpus
from ..train.config import TrainConfig
from ..train.metrics import perplexity
from ..train.trainer import DistributedTrainer

__all__ = ["RunReport", "SimulatedRun"]


@dataclass
class RunReport:
    """What a simulated training run observed."""

    world_size: int
    steps: int
    completed: bool
    oom: bool
    oom_message: str = ""
    initial_perplexity: float = float("nan")
    final_perplexity: float = float("nan")
    wire_bytes_per_rank: int = 0
    comm_seconds: float = 0.0
    peak_memory_bytes: int = 0
    model_bytes: int = 0
    bytes_by_op: dict = field(default_factory=dict)
    time_by_op: dict = field(default_factory=dict)

    @property
    def perplexity_improvement(self) -> float:
        return (self.initial_perplexity - self.final_perplexity) / self.initial_perplexity

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"simulated run: {self.world_size} GPUs, {self.steps} steps, "
            + ("completed" if self.completed else f"ABORTED ({self.oom_message})"),
        ]
        if self.completed:
            lines.append(
                f"  perplexity {self.initial_perplexity:.2f} -> "
                f"{self.final_perplexity:.2f} "
                f"({self.perplexity_improvement:.0%} better)"
            )
        lines.append(
            f"  wire {self.wire_bytes_per_rank / 1e6:.2f} MB/GPU, "
            f"comm {self.comm_seconds * 1e3:.1f} ms simulated, "
            f"peak memory {self.peak_memory_bytes / 1e6:.2f} MB/GPU "
            f"(model {self.model_bytes / 1e6:.2f} MB)"
        )
        return "\n".join(lines)


class SimulatedRun:
    """Configure and execute one training run on simulated hardware.

    Parameters
    ----------
    model_factory, optimizer_factory, corpus, config:
        As for :class:`~repro.train.trainer.DistributedTrainer`.
    device_spec:
        The GPU to simulate (capacity matters: small devices reproduce
        the paper's baseline OOMs).
    optimizer_slots:
        Per-parameter optimizer-state copies charged to device memory
        (0 for SGD, 2 for Adam).
    """

    def __init__(
        self,
        model_factory: Callable,
        optimizer_factory: Callable,
        corpus: SyntheticCorpus,
        config: TrainConfig,
        device_spec: DeviceSpec = TITAN_X,
        optimizer_slots: int = 0,
    ):
        if optimizer_slots < 0:
            raise ValueError("optimizer_slots must be non-negative")
        self.comm = Communicator(
            config.world_size, device_spec=device_spec, track_memory=True
        )
        self.trainer = DistributedTrainer(
            model_factory,
            optimizer_factory,
            corpus.train,
            corpus.valid,
            config,
            comm=self.comm,
        )
        # Charge the persistent per-GPU residency: parameters, gradients,
        # optimizer state (these never leave device memory in a real run).
        params = self.trainer.model.parameter_bytes()
        self.model_bytes = params * (2 + optimizer_slots)
        for dev in self.comm.devices:
            dev.alloc(self.model_bytes, tag="model+grads+optimizer")

    def execute(self, steps: int) -> RunReport:
        """Train for ``steps`` optimizer steps, capturing the report.

        An out-of-memory abort is captured in the report rather than
        raised — callers sweep configurations and tabulate OOM cells the
        way the paper's tables do.
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        report = RunReport(
            world_size=self.comm.world_size,
            steps=steps,
            completed=False,
            oom=False,
            model_bytes=self.model_bytes,
        )
        try:
            report.initial_perplexity = perplexity(self.trainer.evaluate())
            for _ in range(steps):
                self.trainer.train_step()
            report.final_perplexity = perplexity(self.trainer.evaluate())
            report.completed = True
        except DeviceOOMError as exc:
            report.oom = True
            report.oom_message = str(exc)
        ledger = self.comm.ledger
        report.wire_bytes_per_rank = ledger.total_wire_bytes_per_rank
        report.comm_seconds = ledger.total_time_s
        report.peak_memory_bytes = self.comm.peak_bytes_per_rank
        report.bytes_by_op = ledger.bytes_by_op()
        report.time_by_op = ledger.time_by_op()
        return report
