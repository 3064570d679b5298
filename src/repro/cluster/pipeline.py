"""1F1B pipeline schedule: analytic makespan/bubble and timeline charges.

On a device mesh the ``pipe`` and ``tensor`` shards are cost-only: the
trainer runs one unsharded replica per data-parallel group and places
the pipeline's compute and activation transfers on the timeline with
:class:`PipelineSchedule` (compute per stage, activations charged on the
``pipe`` axis).
"""

from __future__ import annotations

__all__ = ["PipelineSchedule"]


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
        for rank in range(mesh.size):
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
