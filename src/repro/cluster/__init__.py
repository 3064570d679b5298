"""Simulated multi-GPU cluster substrate.

Provides byte-exact device memory accounting, a two-tier interconnect
model, MPI-style collectives with alpha-beta cost models, and a cost
ledger — the substrate on which the paper's distributed training runs.
"""

from .collectives import (
    allgather_arrays,
    allgather_wire_bytes,
    allreduce_arrays,
    allreduce_wire_bytes,
    recursive_doubling_allreduce_time,
    reduce_scatter_arrays,
    reduce_scatter_wire_bytes,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
)
from .communicator import CollectiveHook, Communicator, WorkHandle
from .failures import (
    ChaosCommunicator,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultReplay,
    RankFailureError,
    TransientLinkError,
    degrade_fabric,
    inject_straggler,
)
from .hierarchical import hierarchical_allreduce, hierarchical_allreduce_time
from .lockstep import LockstepReport, LockstepVerifier
from .mesh import (
    HYBRID_AXES,
    DeviceMesh,
    hybrid_mesh,
    parse_mesh_spec,
)
from .device import (
    TITAN_X,
    V100,
    DeviceOOMError,
    DeviceSpec,
    ScopedAllocation,
    SimulatedDevice,
)
from .interconnect import (
    INFINIBAND_FDR,
    NVLINK_V100,
    PAPER_CLUSTER_FABRIC,
    PCIE_GEN3,
    V100_FABRIC,
    Interconnect,
    LinkSpec,
)
from .process_group import (
    ProcessGroup,
    group_of_rank,
    partition_ranks,
)
from .timeline import (
    COMM_STREAM,
    COMPUTE_STREAM,
    CollectiveTicket,
    Timeline,
    TimelineEvent,
    events_to_chrome,
)
from .tracing import (
    CommEvent,
    CostLedger,
    LedgerResetError,
    LedgerScopeError,
    LedgerSnapshot,
)

__all__ = [
    "CollectiveHook",
    "Communicator",
    "WorkHandle",
    "Timeline",
    "TimelineEvent",
    "CollectiveTicket",
    "COMPUTE_STREAM",
    "COMM_STREAM",
    "events_to_chrome",
    "LedgerResetError",
    "LedgerScopeError",
    "RankFailureError",
    "TransientLinkError",
    "ChaosCommunicator",
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultReplay",
    "degrade_fabric",
    "inject_straggler",
    "hierarchical_allreduce",
    "hierarchical_allreduce_time",
    "LockstepVerifier",
    "LockstepReport",
    "DeviceMesh",
    "HYBRID_AXES",
    "hybrid_mesh",
    "parse_mesh_spec",
    "CommEvent",
    "CostLedger",
    "LedgerSnapshot",
    "DeviceOOMError",
    "DeviceSpec",
    "SimulatedDevice",
    "ScopedAllocation",
    "TITAN_X",
    "V100",
    "Interconnect",
    "LinkSpec",
    "PCIE_GEN3",
    "INFINIBAND_FDR",
    "NVLINK_V100",
    "PAPER_CLUSTER_FABRIC",
    "V100_FABRIC",
    "ProcessGroup",
    "partition_ranks",
    "group_of_rank",
    "allreduce_arrays",
    "allgather_arrays",
    "reduce_scatter_arrays",
    "allreduce_wire_bytes",
    "allgather_wire_bytes",
    "reduce_scatter_wire_bytes",
    "ring_allreduce_time",
    "ring_allgather_time",
    "ring_reduce_scatter_time",
    "recursive_doubling_allreduce_time",
]
