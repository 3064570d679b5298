"""Collective communication algorithms and their cost models.

Two halves live here:

1. **Functional semantics** — pure functions computing what each rank
   holds after a collective, given the per-rank input arrays.  These are
   *numerically real*: the training stack's gradients flow through them,
   so accuracy results are genuine, not simulated.

2. **Cost models** — the standard alpha-beta (latency-bandwidth) costs
   of the bandwidth-optimal algorithms used by efficient MPI/NCCL
   implementations.  The paper cites Baidu's ring allreduce [31]; we
   model ring variants for every collective and recursive doubling as a
   comparison point (used by an ablation bench).

Cost-model conventions: ``G`` ranks, message of ``n`` bytes *per rank*
(for allgather/reduce-scatter, ``n`` is each rank's contribution), link
``beta`` = unidirectional bandwidth (bytes/s), ``alpha`` = per-hop
latency (s).

The cost and wire-byte models are pure functions of hashable arguments
(:class:`~repro.cluster.interconnect.LinkSpec` is frozen), and a training
step at large ``G`` evaluates them with the *same* (world, nbytes, link)
key on every collective — so they are all memoized with ``lru_cache``.
Invalid inputs still raise on every call (``lru_cache`` does not cache
exceptions).

=================  ==========================================  ============
Collective         Ring cost (time)                            H/D hops
=================  ==========================================  ============
allreduce          ``2 (G-1)/G * n / beta  +  2 (G-1) alpha``  ``2 log2 G``
reduce-scatter     ``(G-1)/G * n / beta  +  (G-1) alpha``      ``log2 G``
allgather          ``(G-1) * n / beta  +  (G-1) alpha``        ``log2 G``
=================  ==========================================  ============

Recursive halving/doubling (H/D, ``G`` a power of two) moves the ring's
bytes at the ring's bandwidth terms in the hops of the last column; it
prices only the two-level schedule's inter-node phase below.

A ring holding ``L > 1`` ranks on each of ``M > 1`` nodes may instead
run **two-level** (:func:`two_level_time`, the NCCL/Horovod schedule):
reduce-scatter ``RS(L, n) + RS(M, n/L)``, allgather ``AG(M, k) +
AG(L, M k)`` (its transpose) and allreduce ``RS(L, n) + AR(M, n/L) +
AG(L, n/L)``.  The ``L`` phases are rings on the intra-node link: the
model has no PCIe topology, and a ring is contention-free on any switch
tree.  The ``M`` phase runs among the peers of one local index at
``beta / L`` (a node's ``L`` peer groups share its one inter-node link:
the schedule saves hops, not bandwidth), as MPICH's recursive
halving/doubling (Thakur, Rabenseifner & Gropp 2005) where ``M`` is a
power of two and as a ring otherwise (:func:`_peer_time`).  Each rank
sends exactly the ring's bytes (``(L-1)/L + 2(M-1)/(ML) + (L-1)/L =
2(G-1)/G`` of an allreduce's ``n``), so only time moves;
:func:`collective_time` charges the cheaper of the flat ring and the
two-level schedule.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import lru_cache

import numpy as np

from .interconnect import Interconnect, LinkSpec

__all__ = [
    "FusedRun",
    "RING",
    "RING_COST",
    "TWO_LEVEL",
    "collective_time",
    "two_level_time",
    "allreduce_arrays",
    "check_ranks",
    "is_payload",
    "ring_payloads",
    "allgather_arrays",
    "reduce_scatter_arrays",
    "ring_allreduce_time",
    "ring_allgather_time",
    "ring_reduce_scatter_time",
    "recursive_doubling_allreduce_time",
    "allreduce_wire_bytes",
    "allgather_wire_bytes",
    "reduce_scatter_wire_bytes",
]


# ---------------------------------------------------------------------------
# Functional semantics
# ---------------------------------------------------------------------------

def _check_uniform(arrays: Sequence[np.ndarray], op: str) -> None:
    if len(arrays) == 0:
        raise ValueError(f"{op}: need at least one rank")
    shape, dtype = arrays[0].shape, arrays[0].dtype
    for rank, arr in enumerate(arrays):
        if arr.shape != shape:
            raise ValueError(
                f"{op}: rank {rank} has shape {arr.shape}, rank 0 has {shape}"
            )
        if arr.dtype != dtype:
            raise ValueError(
                f"{op}: rank {rank} has dtype {arr.dtype}, rank 0 has {dtype}"
            )


#: The rank-order fold walks populated rows only once that skips this
#: many ``x + (+0)`` elements per member (``(Ug - mean K) * D`` of a
#: unique exchange's ``(R, Ug, D)`` block).  Dense vs restricted ms in
#: float64 (``repro_bench_sim_fold_ms``): 1.1 k skipped (char LM, R=512)
#: 0.18 vs 1.9; 8.9 k (R=64) 0.23 vs 0.31; 49 k (word_flat) 1.05 vs 0.8;
#: 205 k (word_wire) 4.1 vs 1.5 — and 42 vs 7.5 on that block in
#: float16, whose adds numpy runs in software.
RESTRICTED_FOLD_MIN_SKIPPED = 32768

#: The same crossover for float16 blocks, whose dense fold costs ~50x
#: float32's.  Dense vs restricted ms (best of 5): 480 skipped
#: ``(64, 100, 8)`` 0.57 vs 0.84; 800 ``(128, 130, 8)`` 1.57 vs 1.75;
#: 880 ``(128, 140, 8)`` 1.66 vs 1.66; 1,000 ``(64, 150, 8)`` 0.90 vs
#: 0.81; 1,088 ``(512, 150, 8)`` 6.7 vs 4.9; 13.7 k ``(32, 538, 32)``,
#: word_wire's input-embedding matrix, 6.2 vs 2.2.
RESTRICTED_FOLD_MIN_SKIPPED_FP16 = 1024


def _restricted_fold_min_skipped(dtype: np.dtype) -> int:
    """Skipped elements per member past which the restricted fold wins."""
    if dtype == np.float16:
        return RESTRICTED_FOLD_MIN_SKIPPED_FP16
    return RESTRICTED_FOLD_MIN_SKIPPED


class FusedRun(dict):
    """One ring's allreduce payload: named ``(ring, ...)`` member blocks.

    Row ``m`` of every block is the ring's ``m``-th member rank's
    contribution, and all members share one dtype.  The ring receives
    the flat concatenation of every member's rank-order sum, never built
    as a ``(ring, size)`` staging copy; ``size`` and ``nbytes`` are one
    rank's share of that message.

    ``held`` may map a member name to its row sets: member rank ``m``'s
    block row is ``+0`` outside its leading-axis rows ``held[name][m]``
    (sorted, unique) — the unique exchange's zero-padded value
    matrices — so the fold may skip those ``x + (+0)`` steps (see
    :func:`_restricted_fold`).
    """

    def __init__(self, members=(), held=None, **named):
        super().__init__(members, **named)
        self.held: dict[str, Sequence[np.ndarray]] = dict(held or {})

    @property
    def dtype(self) -> np.dtype:
        dtypes = {m.dtype for m in self.values()}
        if len(dtypes) != 1:
            raise ValueError(
                "a fused run needs at least one member, all of one dtype; "
                f"got {sorted(map(str, dtypes))}"
            )
        return dtypes.pop()

    @property
    def ring(self) -> int:
        """The member ranks: every block's leading length."""
        rings = {len(m) for m in self.values()}
        if len(rings) != 1:
            raise ValueError(
                "a fused run needs at least one member, all of one leading "
                f"length; got {sorted(rings)}"
            )
        return rings.pop()

    @property
    def size(self) -> int:
        return sum(m.size for m in self.values()) // self.ring

    @property
    def nbytes(self) -> int:
        return sum(m.nbytes for m in self.values()) // self.ring

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "FusedRun":
        """This run with ``fn`` applied to every block (row sets kept)."""
        return FusedRun(((n, fn(m)) for n, m in self.items()), held=self.held)


def is_payload(arrays: Sequence) -> bool:
    """Whether ``arrays`` is one :class:`FusedRun` per ring rather than a
    per-flat-rank list of arrays."""
    return len(arrays) > 0 and isinstance(arrays[0], FusedRun)


def check_ranks(
    op: str, arrays: Sequence, groups: Sequence[Sequence[int]]
) -> None:
    """Raise unless ``arrays`` is one array per flat rank, or one
    :class:`FusedRun` per ring with one row per member rank."""
    if not is_payload(arrays):
        world = sum(map(len, groups))
        if len(arrays) != world:
            raise ValueError(
                f"{op}: got {len(arrays)} per-rank arrays for a "
                f"{world}-rank communicator"
            )
    elif [run.ring for run in arrays] != [len(g) for g in groups]:
        raise ValueError(
            f"{op}: got payloads of {[run.ring for run in arrays]} ranks "
            f"for rings of {[len(g) for g in groups]}"
        )


def ring_payloads(
    arrays: Sequence, groups: Sequence[Sequence[int]]
) -> list[FusedRun]:
    """``arrays`` (checked) as one :class:`FusedRun` per ring: itself, or
    a per-flat-rank list stacked once per ring into the member ``""``."""
    check_ranks("allreduce", arrays, groups)
    if is_payload(arrays):
        return list(arrays)
    rings = []
    for ranks in groups:
        sub = [arrays[r] for r in ranks]
        _check_uniform(sub, "allreduce")
        rings.append(FusedRun({"": np.stack(sub)}))
    return rings


def allreduce_arrays(
    arrays: FusedRun | Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Sum-allreduce of one ring: every member rank receives the sum.

    ``arrays`` is the ring's :class:`FusedRun` payload, whose members
    are each folded alone into their slice of one flat sum, or the
    ring's per-rank arrays, folded as the rows of one block (stacked
    once, where ``np.add.reduce`` needs it) into a sum of their shape.

    The reduction is performed in rank order, which is deterministic —
    matching NCCL's behaviour of a fixed reduction order along the ring.
    The sum is identical on every rank, so every rank receives the *same*
    array object, read-only (``writeable=False``): a caller that writes
    to it fails loudly instead of corrupting the other ranks' results.
    """
    if isinstance(arrays, FusedRun):
        return _shared(_fold_run(arrays), arrays.ring)
    _check_uniform(arrays, "allreduce")
    return _shared(_fold(arrays), len(arrays))


def _fold(
    block: np.ndarray | Sequence[np.ndarray],
    held: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """The rank-order sum of ``block``'s rows, in their dtype.

    ``np.add.reduce`` over the leading axis, seeded with ``-0.0`` (the
    one ``x`` with ``-0.0 + x == x`` for every ``x``), accumulates
    element-wise in row order — the sequential fold, for strided column
    views too — except where a row holds one element: the reduction
    axis is then the inner loop and numpy sums it pairwise, so that case
    (and a ring of two) keeps the explicit fold.  ``held`` (see
    :class:`FusedRun`) selects :func:`_restricted_fold` once it skips
    enough padding.
    """
    ranks = len(block)
    if held is not None and len(held) != ranks:
        raise ValueError(f"allreduce: {len(held)} row sets for {ranks} ranks")
    # A float16 sum may overflow to inf (and inf - inf is nan), as a
    # real FP16 ring's does; the trainer's post-sync finiteness check
    # reports it, not numpy.
    dtype = block[0].dtype
    quiet = (
        dict(over="ignore", invalid="ignore") if dtype == np.float16 else {}
    )
    with np.errstate(**quiet):
        if ranks > 2 and block[0].size > 1:
            if held is not None and (
                (block.shape[1] - sum(r.size for r in held) / ranks)
                * block[0, 0].size
            ) >= _restricted_fold_min_skipped(dtype):
                return _restricted_fold(block, held)
            return np.add.reduce(block, axis=0, initial=-0.0)
        total = np.array(block[0])
        for row in block[1:]:
            total += row
        return total


def _fold_run(run: FusedRun) -> np.ndarray:
    """Every member's rank-order sum, in its slice of one flat array."""
    dtype = run.dtype
    total = np.empty(run.size, dtype)
    offset = 0
    for name, block in run.items():
        size = block[0].size
        summed = _fold(block, run.held.get(name))
        total[offset : offset + size] = summed.ravel()
        offset += size
    return total


def _restricted_fold(
    stacked: np.ndarray, rows: Sequence[np.ndarray]
) -> np.ndarray:
    """``np.add.reduce(stacked, axis=0)`` over each member's populated rows.

    The dense fold adds ``+0`` wherever a member holds nothing, and
    ``x + (+0) == x`` for every ``x`` except ``-0.0`` (which becomes
    ``+0.0``); a zero's sign never changes a later non-zero sum.  So
    skipping those steps can only leave a ``-0.0`` where the dense fold
    ends on ``+0.0`` — and only on rows some member skipped, where one
    ``+ 0`` pass at the end restores exactly the dense result.  Member 0
    enters as an exact copy, as the ``-0.0``-seeded dense fold takes it.
    """
    total = np.array(stacked[0])
    for member in range(1, len(rows)):
        held = rows[member]
        total[held] += stacked[member, held]
    skipped = np.bincount(
        np.concatenate(rows), minlength=total.shape[0]
    ) < len(rows)
    np.add(
        total, 0, out=total,
        where=skipped.reshape((-1,) + (1,) * (total.ndim - 1)),
    )
    return total


def _shared(result: np.ndarray, world: int) -> list[np.ndarray]:
    """One read-only result object for each of ``world`` ranks."""
    result.flags.writeable = False
    return [result] * world


def allgather_arrays(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Allgather: every rank receives the rank-order concatenation.

    Per-rank contributions must agree in dtype and trailing dimensions but
    may differ in leading length (an allgatherv), which the uniqueness
    algorithm relies on when ranks hold different numbers of local types.
    Every rank receives the same read-only object, as for
    :func:`allreduce_arrays`.
    """
    if len(arrays) == 0:
        raise ValueError("allgather: need at least one rank")
    dtype = arrays[0].dtype
    trailing = arrays[0].shape[1:]
    for rank, arr in enumerate(arrays):
        if arr.dtype != dtype:
            raise ValueError(
                f"allgather: rank {rank} dtype {arr.dtype} != rank 0 {dtype}"
            )
        if arr.shape[1:] != trailing:
            raise ValueError(
                f"allgather: rank {rank} trailing dims {arr.shape[1:]} != "
                f"rank 0 {trailing}"
            )
    gathered = np.concatenate([np.atleast_1d(a) for a in arrays], axis=0)
    return _shared(gathered, len(arrays))


def reduce_scatter_arrays(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Sum-reduce then scatter equal shards back, one per rank.

    The leading dimension must divide evenly by the number of ranks.
    """
    _check_uniform(arrays, "reduce_scatter")
    world = len(arrays)
    n = arrays[0].shape[0]
    if n % world != 0:
        raise ValueError(
            f"reduce_scatter: leading dim {n} not divisible by world size {world}"
        )
    total = arrays[0].copy()
    for arr in arrays[1:]:
        total += arr
    shard = n // world
    return [total[r * shard : (r + 1) * shard].copy() for r in range(world)]


# ---------------------------------------------------------------------------
# Wire-byte accounting (per rank, one direction)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def allreduce_wire_bytes(world: int, nbytes: int) -> int:
    """Bytes each rank sends during a ring allreduce of an n-byte buffer."""
    _check_world(world)
    if world == 1:
        return 0
    return math.ceil(2 * (world - 1) / world * nbytes)


@lru_cache(maxsize=4096)
def allgather_wire_bytes(world: int, nbytes_per_rank: int) -> int:
    """Bytes each rank sends during a ring allgather (its shard, G-1 times)."""
    _check_world(world)
    return (world - 1) * nbytes_per_rank


@lru_cache(maxsize=4096)
def reduce_scatter_wire_bytes(world: int, nbytes: int) -> int:
    """Bytes each rank sends during a ring reduce-scatter of an n-byte buffer."""
    _check_world(world)
    if world == 1:
        return 0
    return math.ceil((world - 1) / world * nbytes)


def _check_world(world: int) -> None:
    if world <= 0:
        raise ValueError(f"world size must be positive, got {world}")


# ---------------------------------------------------------------------------
# Time models
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def ring_allreduce_time(world: int, nbytes: int, link: LinkSpec) -> float:
    """Ring allreduce: reduce-scatter pass + allgather pass.

    Bandwidth term ``2 (G-1)/G * n / beta`` is the classic
    bandwidth-optimal bound; latency term is ``2 (G-1) alpha`` hops.
    """
    _check_world(world)
    if world == 1:
        return 0.0
    bw_term = 2 * (world - 1) / world * nbytes / link.bandwidth
    lat_term = 2 * (world - 1) * link.latency
    return bw_term + lat_term


@lru_cache(maxsize=4096)
def ring_allgather_time(world: int, nbytes_per_rank: int, link: LinkSpec) -> float:
    """Ring allgather of ``nbytes_per_rank`` from each rank: G-1 shard hops."""
    _check_world(world)
    if world == 1:
        return 0.0
    bw_term = (world - 1) * nbytes_per_rank / link.bandwidth
    lat_term = (world - 1) * link.latency
    return bw_term + lat_term


@lru_cache(maxsize=4096)
def ring_reduce_scatter_time(world: int, nbytes: int, link: LinkSpec) -> float:
    """Ring reduce-scatter of an n-byte buffer: half of a ring allreduce."""
    _check_world(world)
    if world == 1:
        return 0.0
    bw_term = (world - 1) / world * nbytes / link.bandwidth
    lat_term = (world - 1) * link.latency
    return bw_term + lat_term


@lru_cache(maxsize=4096)
def recursive_doubling_allreduce_time(
    world: int, nbytes: int, link: LinkSpec
) -> float:
    """Recursive-doubling allreduce: ``log2 G`` rounds, full buffer each round.

    Latency-optimal but not bandwidth-optimal; provided as the comparison
    point for the collectives ablation bench (small messages favour it,
    the paper's large embedding gradients favour the ring).
    """
    _check_world(world)
    if world == 1:
        return 0.0
    rounds = math.ceil(math.log2(world))
    return rounds * (link.latency + nbytes / link.bandwidth)


#: Schedule names :func:`collective_time` returns (and the timeline records).
RING = "ring"
TWO_LEVEL = "two_level"

#: op -> (wire bytes per rank, the same under either schedule; ring time).
RING_COST = {
    "allreduce": (allreduce_wire_bytes, ring_allreduce_time),
    "allgather": (allgather_wire_bytes, ring_allgather_time),
    "reduce_scatter": (reduce_scatter_wire_bytes, ring_reduce_scatter_time),
}


def _peer_time(op: str, nodes: int, nbytes: int, link: LinkSpec) -> float:
    """The two-level schedule's inter-node phase among ``nodes`` peers:
    recursive halving (reduce-scatter) and doubling (allgather) where
    ``nodes`` is a power of two — ``log2 M`` rounds per pass, each
    rank sending the ring's bytes — and the ring otherwise.  The terms
    are the ring's with ``log2 M`` for ``M - 1``, so ``M = 2`` is the
    ring bit for bit."""
    if nodes & (nodes - 1):
        return RING_COST[op][1](nodes, nbytes, link)
    rounds = nodes.bit_length() - 1
    passes = 2 if op == "allreduce" else 1
    if op == "allgather":
        bw_term = (nodes - 1) * nbytes / link.bandwidth
    else:
        bw_term = passes * (nodes - 1) / nodes * nbytes / link.bandwidth
    return bw_term + passes * rounds * link.latency


@lru_cache(maxsize=4096)
def two_level_time(
    op: str, local: int, nodes: int, nbytes: int, fabric: Interconnect
) -> float:
    """The two-level schedule's phases (module docstring) summed in
    order: intra-node rings around the :func:`_peer_time` phase; a shard
    of an ``nbytes`` not divisible by ``local`` rounds up."""
    intra, link = fabric.intra_node, fabric.inter_node
    inter = LinkSpec(link.bandwidth / local, link.latency)  # L peer groups
    if op == "allgather":
        return _peer_time(op, nodes, nbytes, inter) + ring_allgather_time(
            local, nodes * nbytes, intra
        )
    shard = -(-nbytes // local)
    head = ring_reduce_scatter_time(local, nbytes, intra)
    if op == "reduce_scatter":
        return head + _peer_time(op, nodes, shard, inter)
    return (
        head
        + _peer_time(op, nodes, shard, inter)
        + ring_allgather_time(local, shard, intra)
    )


@lru_cache(maxsize=4096)
def collective_time(
    op: str,
    world: int,
    nbytes: int,
    link: LinkSpec,
    fabric: Interconnect,
    local: int,
) -> tuple[float, str]:
    """``(seconds, schedule)``: the flat ring on ``link`` or, when each
    ring holds ``local`` = L > 1 ranks on each of ``world / L > 1``
    nodes of ``fabric``, the two-level schedule (:func:`two_level_time`:
    its inter-node phase halving/doubling where M is a power of two) if
    strictly cheaper.  The communicator's one cost function (``nbytes``
    as for the ring)."""
    ring = RING_COST[op][1](world, nbytes, link)
    nodes = world // local
    if local <= 1 or nodes <= 1:
        return ring, RING
    two = two_level_time(op, local, nodes, nbytes, fabric)
    return (two, TWO_LEVEL) if two < ring else (ring, RING)
