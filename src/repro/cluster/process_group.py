"""Process groups: ordered subsets of a world's ranks.

The seeding technique (Section III-B of the paper) partitions the G GPUs
into *seed groups*: GPUs in the same group draw the same sampled-softmax
candidates.  A :class:`ProcessGroup` provides the rank-set bookkeeping
for such partitions and for the per-axis subgroups of a
:class:`~repro.cluster.mesh.DeviceMesh` (collectives over those run
through :meth:`repro.cluster.communicator.Communicator.axis`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "ProcessGroup",
    "group_of_rank",
    "partition_ranks",
]


@dataclass(frozen=True)
class ProcessGroup:
    """An ordered, duplicate-free subset of a parent communicator's ranks."""

    parent_world: int
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ranks) == 0:
            raise ValueError("a process group needs at least one rank")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"duplicate ranks in group: {self.ranks}")
        for r in self.ranks:
            if not 0 <= r < self.parent_world:
                raise ValueError(
                    f"rank {r} out of range for world size {self.parent_world}"
                )

    @property
    def size(self) -> int:
        return len(self.ranks)

    def contains(self, rank: int) -> bool:
        return rank in self.ranks

    def local_rank(self, global_rank: int) -> int:
        """Position of ``global_rank`` inside this group."""
        try:
            return self.ranks.index(global_rank)
        except ValueError:
            raise ValueError(
                f"rank {global_rank} is not a member of group {self.ranks}"
            ) from None


def partition_ranks(world_size: int, num_groups: int) -> list[ProcessGroup]:
    """Split ``world_size`` ranks into ``num_groups`` contiguous groups.

    Group sizes differ by at most one (the first ``world_size % num_groups``
    groups get the extra rank).  Used by the seeding strategies to assign
    GPUs to shared-seed groups.
    """
    if num_groups <= 0:
        raise ValueError("num_groups must be positive")
    if num_groups > world_size:
        raise ValueError(
            f"cannot split {world_size} ranks into {num_groups} non-empty groups"
        )
    base, extra = divmod(world_size, num_groups)
    groups: list[ProcessGroup] = []
    start = 0
    for g in range(num_groups):
        size = base + (1 if g < extra else 0)
        groups.append(
            ProcessGroup(parent_world=world_size, ranks=tuple(range(start, start + size)))
        )
        start += size
    assert start == world_size
    return groups


def group_of_rank(groups: Sequence[ProcessGroup], rank: int) -> int:
    """Index of the group containing ``rank``; raises if not found."""
    for i, g in enumerate(groups):
        if g.contains(rank):
            return i
    raise ValueError(f"rank {rank} not in any group")
