"""Device mesh with named axes: the geometry per-axis collectives ring over.

Megatron-LM's follow-up (PAPERS.md, 2104.04473) composes tensor,
pipeline, and data parallelism by arranging the G GPUs in a logical
mesh: a rank is a coordinate tuple, and every parallelism dimension
talks only to the ranks that share its other coordinates.  This module
gives the simulated cluster the same substrate:

* :class:`DeviceMesh` — a named-axis view over the flat rank list.
  The layout is row-major with the **last axis fastest-varying**, so
  the innermost axis occupies contiguous ranks — placing the
  bandwidth-hungry ``tensor`` (or ``local``) axis on intra-node links
  exactly as Megatron's topology mapping does.  Per-axis subgroups are
  ordinary :class:`~repro.cluster.process_group.ProcessGroup` objects.
* A :class:`~repro.cluster.communicator.Communicator` carries one mesh
  and :meth:`~repro.cluster.communicator.Communicator.axis` binds its
  collectives to one axis: numerics run per subgroup (disjoint
  subgroups reduce independently) through the single issue funnel, so
  scratch, ledger, timeline, telemetry, fault replay and sanitizing
  apply to per-axis collectives unchanged.

Cost model: disjoint subgroups of one axis run concurrently on
disjoint links (the Megatron placement assumption), so one per-axis
collective is a single timeline event costed on the *largest* subgroup
message (the communicator derives the axis link and schedule).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from ..errors import ConfigError
from .process_group import ProcessGroup

__all__ = [
    "DeviceMesh",
    "HYBRID_AXES",
    "hybrid_mesh",
    "parse_mesh_spec",
]

#: The conventional axis order for hybrid training meshes.
HYBRID_AXES = ("pipe", "tensor", "data")


def hybrid_mesh(spec: str, world_size: int) -> "DeviceMesh":
    """Parse a training-mesh spec into a canonical 3-axis hybrid mesh.

    Like :func:`parse_mesh_spec` but restricted to the
    :data:`HYBRID_AXES` names — unknown axes are rejected with the valid
    set spelled out, omitted axes default to size 1, and the result
    always carries all three axes in ``(pipe, tensor, data)`` order so
    downstream code can index them positionally.
    """
    parsed = parse_mesh_spec(spec, world_size)
    unknown = [n for n in parsed.axis_names if n not in HYBRID_AXES]
    if unknown:
        raise ConfigError(
            f"unknown training-mesh axis(es) {unknown}: a training mesh "
            f"uses only {', '.join(HYBRID_AXES)} "
            "(e.g. '--mesh pipe=2,tensor=2,data=G/4')"
        )
    # Omitted axes get size 1, so the parsed product (== world_size,
    # checked by parse_mesh_spec) is unchanged.
    by_name = dict(zip(parsed.axis_names, parsed.axis_sizes))
    return DeviceMesh(HYBRID_AXES, tuple(by_name.get(n, 1) for n in HYBRID_AXES))


def parse_mesh_spec(spec: str, world_size: int) -> "DeviceMesh":
    """Parse ``"pipe=2,tensor=4,data=G/8"`` into a :class:`DeviceMesh`.

    Axis sizes are positive integers, ``G`` (the world size), or
    ``G/<int>`` (must divide evenly).  One axis may omit its value
    entirely (``data=``) to be inferred from the remaining factor.  The
    axis product must equal ``world_size``.
    """
    if not spec.strip():
        raise ConfigError("empty mesh spec")
    names: list[str] = []
    sizes: list[int | None] = []
    for part in spec.split(","):
        part = part.strip()
        if "=" not in part:
            raise ConfigError(
                f"bad mesh axis {part!r}: expected '<name>=<size>' "
                "(e.g. 'tensor=4', 'data=G/8')"
            )
        name, _, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if not name:
            raise ConfigError(f"bad mesh axis {part!r}: empty axis name")
        if name in names:
            raise ConfigError(f"duplicate mesh axis {name!r}")
        names.append(name)
        if not value:
            sizes.append(None)
        elif value == "G":
            sizes.append(world_size)
        elif value.startswith("G/"):
            divisor = value[2:]
            if not divisor.isdigit() or int(divisor) <= 0:
                raise ConfigError(
                    f"bad mesh axis {part!r}: expected 'G/<positive int>'"
                )
            div = int(divisor)
            if world_size % div != 0:
                raise ConfigError(
                    f"mesh axis {name!r}: G/{div} does not divide "
                    f"world size {world_size}"
                )
            sizes.append(world_size // div)
        elif value.lstrip("-").isdigit():
            size = int(value)
            if size <= 0:
                raise ConfigError(
                    f"mesh axis {name!r} must be positive, got {size}"
                )
            sizes.append(size)
        else:
            raise ConfigError(
                f"bad mesh axis {part!r}: size must be an integer, "
                "'G', or 'G/<int>'"
            )
    inferred = [i for i, s in enumerate(sizes) if s is None]
    if len(inferred) > 1:
        raise ConfigError("at most one mesh axis may omit its size")
    known = 1
    for s in sizes:
        if s is not None:
            known *= s
    if inferred:
        if world_size % known != 0:
            raise ConfigError(
                f"cannot infer axis {names[inferred[0]]!r}: known axes "
                f"product {known} does not divide world size {world_size}"
            )
        sizes[inferred[0]] = world_size // known
    total = 1
    for s in sizes:
        total *= s  # type: ignore[operator]
    if total != world_size:
        raise ConfigError(
            f"mesh {spec!r} has {total} rank(s) but the world has "
            f"{world_size}; axis sizes must multiply to the world size"
        )
    return DeviceMesh(tuple(names), tuple(sizes))  # type: ignore[arg-type]


@dataclass(frozen=True)
class DeviceMesh:
    """A named-axis, row-major view over ``prod(axis_sizes)`` flat ranks.

    The last axis varies fastest: rank ``r`` has coordinate
    ``coords(r)`` with ``coords(r)[-1] == r % axis_sizes[-1]``.  The
    2-axis hierarchical layout ``("node", "local")`` therefore maps
    rank ``n*L + l`` to node ``n``, matching the fabric's physical
    node assignment, and a ``("pipe", "tensor", "data")`` hybrid mesh
    keeps each tensor×data block of one pipeline stage contiguous.
    """

    axis_names: tuple[str, ...]
    axis_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.axis_names:
            raise ValueError("a mesh needs at least one axis")
        if len(self.axis_names) != len(self.axis_sizes):
            raise ValueError(
                f"{len(self.axis_names)} axis names vs "
                f"{len(self.axis_sizes)} sizes"
            )
        if len(set(self.axis_names)) != len(self.axis_names):
            raise ValueError(f"duplicate axis names: {self.axis_names}")
        for name, size in zip(self.axis_names, self.axis_sizes):
            if size <= 0:
                raise ValueError(f"axis {name!r} must be positive, got {size}")

    # -- shape ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of ranks in the mesh."""
        total = 1
        for s in self.axis_sizes:
            total *= s
        return total

    @property
    def ndim(self) -> int:
        """Number of mesh axes."""
        return len(self.axis_names)

    def axis_index(self, axis: str) -> int:
        """Position of ``axis`` in the axis tuple; raises if unknown."""
        try:
            return self.axis_names.index(axis)
        except ValueError:
            raise ValueError(
                f"unknown mesh axis {axis!r}; have {self.axis_names}"
            ) from None

    def axis_size(self, axis: str) -> int:
        """Number of ranks along ``axis``."""
        return self.axis_sizes[self.axis_index(axis)]

    def describe(self) -> str:
        """The canonical spec string, e.g. ``"pipe=2,tensor=4,data=8"``."""
        return ",".join(
            f"{n}={s}" for n, s in zip(self.axis_names, self.axis_sizes)
        )

    # -- coordinates ---------------------------------------------------

    def _strides(self) -> tuple[int, ...]:
        strides = [1] * self.ndim
        for i in range(self.ndim - 2, -1, -1):
            strides[i] = strides[i + 1] * self.axis_sizes[i + 1]
        return tuple(strides)

    def coords(self, rank: int) -> tuple[int, ...]:
        """Coordinate tuple of a flat rank (row-major, last axis fastest)."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for mesh {self}")
        out = []
        for stride, size in zip(self._strides(), self.axis_sizes):
            out.append((rank // stride) % size)
        return tuple(out)

    def rank_at(self, coords: Sequence[int]) -> int:
        """Flat rank of a coordinate tuple."""
        if len(coords) != self.ndim:
            raise ValueError(
                f"{len(coords)} coordinates for a {self.ndim}-axis mesh"
            )
        rank = 0
        for c, stride, size in zip(coords, self._strides(), self.axis_sizes):
            if not 0 <= c < size:
                raise ValueError(f"coordinate {c} out of range (size {size})")
            rank += c * stride
        return rank

    # -- subgroups -----------------------------------------------------

    def groups(self, axis: str) -> tuple[ProcessGroup, ...]:
        """All subgroups of ``axis``: one per combination of other coords.

        Each group lists the ranks whose coordinates agree on every axis
        except ``axis``, ordered by their ``axis`` coordinate.  Together
        the groups partition ``range(size)`` exactly (property-tested).

        The mesh is frozen, so the decomposition is memoized per
        ``(mesh, axis)`` — the communicator asks for the same grouping
        on every collective of every step.
        """
        return _mesh_axis_groups(self, axis)

    def _build_groups(self, axis: str) -> tuple[ProcessGroup, ...]:
        i = self.axis_index(axis)
        other = [
            range(s) for j, s in enumerate(self.axis_sizes) if j != i
        ]
        out = []
        for fixed in product(*other):
            ranks = []
            for v in range(self.axis_sizes[i]):
                coords = list(fixed[:i]) + [v] + list(fixed[i:])
                ranks.append(self.rank_at(coords))
            out.append(ProcessGroup(parent_world=self.size, ranks=tuple(ranks)))
        return tuple(out)

    def __str__(self) -> str:
        return f"DeviceMesh({self.describe()})"


@lru_cache(maxsize=1024)
def _mesh_axis_groups(mesh: DeviceMesh, axis: str) -> tuple[ProcessGroup, ...]:
    """Memoized :meth:`DeviceMesh.groups` (meshes are immutable)."""
    return mesh._build_groups(axis)
