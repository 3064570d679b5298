"""Dynamic SPMD lockstep verification: per-rank collective fingerprints.

The static rules (REPRO010–012) prove what they can from the AST; this
module catches the rest at runtime.  A :class:`LockstepVerifier` is a
:class:`~repro.cluster.communicator.CollectiveHook` on the
communicator's single issue funnel: it fingerprints every collective
**per rank** as ``(issue index, op, tag, shape, dtype)`` — blocking,
non-blocking, explicitly scheduled and per-axis alike.  A collective
issued through :meth:`Communicator.axis
<repro.cluster.communicator.Communicator.axis>` is additionally
fingerprinted on a per-``(axis, subgroup)`` ring (one child verifier
per subgroup, created on first use), where the payload envelope must be
uniform *within* the subgroup; the global stream records such ops
without their envelope, because shards of different subgroups
legitimately differ in shape.  At synchronization
points — ``wait_all``, ``Sanitizer.finish()``, or an explicit
:meth:`LockstepVerifier.check` — the per-rank streams are
cross-checked: on a real cluster a rank that issued a different (or no)
collective would deadlock the job silently; here it becomes an immediate
:class:`~repro.analysis.sanitizer.CollectiveMismatchError` with a
per-rank divergence report naming the diverging rank and call site.

A happens-before checker rides along: when ``hash_mode`` is not
``"off"``, every payload buffer is hashed at issue and re-hashed at
``wait()`` — a mutation while the transfer is (logically) in flight
raises :class:`~repro.analysis.sanitizer.InFlightMutationError`, the
runtime twin of lint rule REPRO012.  The default ``"sample"`` mode
hashes only the head and tail of each buffer so the verifier stays
well under the 5% overhead budget on ``bench_micro_collectives``;
``"full"`` hashes every byte for correctness tests.

Ranks evicted by the elastic recovery loop are recorded via
:meth:`LockstepVerifier.mark_failed` and reported as missing
participants rather than divergences — a dead rank is *expected* to
stop issuing.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .communicator import CollectiveHook

__all__ = ["LockstepVerifier", "LockstepReport"]

#: Collectives whose payload envelope must match on every rank.
_UNIFORM_SHAPE_OPS = frozenset({"allreduce", "reduce_scatter"})

_HASH_MODES = ("off", "sample", "full")


def _mismatch_error(message: str) -> Exception:
    # Imported lazily: repro.analysis.sanitizer imports the communicator
    # at module level, so a module-level import here would be a cycle.
    from ..analysis.sanitizer import CollectiveMismatchError

    return CollectiveMismatchError(message)


def _mutation_error(message: str) -> Exception:
    from ..analysis.sanitizer import InFlightMutationError

    return InFlightMutationError(message)


@dataclass(frozen=True)
class LockstepReport:
    """Outcome of one cross-rank fingerprint check."""

    point: str
    world_size: int
    #: Fingerprints recorded per rank at check time.
    counts: tuple[int, ...]
    #: ``(rank, reason)`` for every evicted rank.
    evicted: tuple[tuple[int, str], ...]
    #: Length of the verified common prefix.
    verified: int

    def describe(self) -> str:
        """Human-readable summary naming missing participants."""
        lines = [
            f"lockstep@{self.point}: verified {self.verified} collective(s) "
            f"across {self.world_size} rank(s)"
        ]
        for rank, reason in self.evicted:
            lines.append(
                f"  rank {rank}: missing participant — evicted ({reason})"
            )
        return "\n".join(lines)


class LockstepVerifier(CollectiveHook):
    """Cross-checks per-rank collective fingerprints at sync points.

    Parameters
    ----------
    world_size:
        Number of ranks to track.
    hash_mode:
        In-flight buffer hashing: ``"off"`` (fingerprints only),
        ``"sample"`` (head+tail of each buffer, the cheap default), or
        ``"full"`` (every byte; use in correctness tests).
    sample_bytes:
        Byte budget for each end of a buffer in ``"sample"`` mode.
    """

    def __init__(
        self,
        world_size: int,
        hash_mode: str = "sample",
        sample_bytes: int = 1024,
    ):
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        if hash_mode not in _HASH_MODES:
            raise ValueError(
                f"hash_mode must be one of {_HASH_MODES}, got {hash_mode!r}"
            )
        if sample_bytes <= 0:
            raise ValueError("sample_bytes must be positive")
        self.world_size = world_size
        self.hash_mode = hash_mode
        self.sample_bytes = sample_bytes
        #: Per-rank fingerprint streams: (index, op, tag, shape, dtype).
        self._streams: list[list[tuple]] = [[] for _ in range(world_size)]  # mesh-ok: one fingerprint stream per flat rank
        #: Verified common-prefix length.
        self._checked = 0
        #: rank -> eviction reason.
        self._evicted: dict[int, str] = {}
        #: id(handle) -> (handle, [(rank, array, digest), ...]).
        self._inflight: dict[int, tuple[object, list[tuple]]] = {}
        #: Successfully observed collective issues.
        self.collectives_observed = 0
        #: axis -> one child verifier per subgroup (parallels the axis
        #: view's ``groups``), created at the axis's first collective.
        self.axis_rings: dict[str, tuple[LockstepVerifier, ...]] = {}

    @classmethod
    def attach(cls, comm, **kwargs) -> "LockstepVerifier":
        """Build a verifier for ``comm`` and hook it onto its funnel."""
        verifier = cls(comm.world_size, **kwargs)
        comm.hooks.append(verifier)
        return verifier

    # -- rank liveness -------------------------------------------------

    @property
    def live_ranks(self) -> tuple[int, ...]:
        """Ranks still expected to participate."""
        return tuple(
            r for r in range(self.world_size) if r not in self._evicted  # mesh-ok: liveness is a flat-world property
        )

    def mark_failed(self, rank: int, reason: str = "rank failure") -> None:
        """Record that ``rank`` died: it becomes a missing participant."""
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} out of range for world {self.world_size}"
            )
        self._evicted.setdefault(rank, reason)

    # -- observation hooks (called by the Communicator) ----------------

    def record(
        self,
        rank: int,
        op: str,
        tag: str = "",
        shape: Sequence[int] = (),
        dtype: str = "",
    ) -> None:
        """Append one fingerprint by hand (hand-built scenarios/tests)."""
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} out of range for world {self.world_size}"
            )
        stream = self._streams[rank]
        stream.append((len(stream), op, str(tag), tuple(shape), str(dtype)))

    def post_issue(self, comm, handle, arrays) -> None:
        """Funnel hook: the global stream plus, on an axis view, its rings."""
        if comm.axis_name is None:
            self.observe_issue(handle, arrays)
            return
        # Shards of different subgroups legitimately differ in shape, so
        # the global stream keeps only (op, tag); each subgroup's ring
        # checks the envelope among its own members.
        self.observe_issue(handle, arrays, envelope=False)
        rings = self.axis_rings.get(comm.axis_name)
        if rings is None:
            rings = self.axis_rings[comm.axis_name] = tuple(
                LockstepVerifier(len(ranks), hash_mode="off")
                for ranks in comm.groups
            )
        for ring, ranks in zip(rings, comm.groups):
            ring.observe_issue(
                handle, None if arrays is None else [arrays[r] for r in ranks]
            )

    def observe_issue(self, handle, arrays, envelope: bool = True) -> None:
        """Fingerprint one issued collective for every live rank.

        ``arrays`` is the per-rank payload list handed to the ``i*``
        method (None for payload-free ops).  Signature uniformity is
        checked immediately: an op in :data:`_UNIFORM_SHAPE_OPS` with
        per-rank shapes/dtypes, or any op with per-rank dtypes, is a
        mismatched-signature deadlock on a real cluster.  Shapes enter
        the fingerprint only for those ops — an allgatherv's ragged
        per-rank counts are legal (the counts travel first).  With
        ``envelope=False`` the buffers are still hashed but neither
        shape nor dtype is fingerprinted or checked.
        """
        op = getattr(handle, "op", "?")
        tag = str(getattr(handle, "tag", ""))
        hashing = self.hash_mode != "off"
        uniform_shape = op in _UNIFORM_SHAPE_OPS
        hashes: list[tuple] = []
        base = None  # (rank, shape, dtype) of the first rank with a payload
        mismatch = None
        seen_dtype = name = None  # str(dtype) is costly; ranks share one
        for rank in self.live_ranks:
            shape, dtype = (), ""
            if arrays is not None and rank < len(arrays):
                a = arrays[rank]
                if isinstance(a, np.ndarray):
                    if hashing:
                        hashes.append((rank, a, self._digest(a)))
                else:
                    a = np.asarray(a)
                if envelope:
                    if a.dtype is not seen_dtype:
                        seen_dtype, name = a.dtype, str(a.dtype)
                    dtype = name
                    if uniform_shape:
                        shape = a.shape
                    if base is None:
                        base = (rank, shape, dtype)
                    elif mismatch is None and (
                        dtype != base[2] or shape != base[1]
                    ):
                        mismatch = (rank, shape, dtype)
            stream = self._streams[rank]
            stream.append((len(stream), op, tag, shape, dtype))
        self.collectives_observed += 1
        if mismatch is not None:
            rank, shape, dtype = mismatch
            raise _mismatch_error(
                f"mismatched `{op}` signature (tag={tag!r}): rank "
                f"{base[0]} brought shape={base[1]} "
                f"dtype={base[2]} but rank {rank} brought "
                f"shape={shape} dtype={dtype} — per-rank envelopes "
                "never match on a real cluster (static counterpart: "
                "lint rule REPRO011)"
            )
        if hashes:
            self._inflight[id(handle)] = (handle, hashes)

    def on_wait(self, handle) -> None:
        """Re-hash the handle's payload buffers; detect in-flight writes."""
        entry = self._inflight.pop(id(handle), None)
        if entry is None:
            return
        _, hashes = entry
        for rank, array, digest in hashes:
            if self._digest(array) != digest:
                raise _mutation_error(
                    f"rank {rank}'s buffer for `{handle.op}` "
                    f"(tag={handle.tag!r}) was mutated between issue and "
                    "wait(): the in-flight transfer may read either value "
                    "— wait() before writing, or stage into a copy "
                    "(static counterpart: lint rule REPRO012)"
                )

    # -- cross-rank verification --------------------------------------

    def check(self, point: str = "check") -> LockstepReport:
        """Cross-check per-rank streams; raise on divergence.

        Compares every live rank's fingerprints beyond the already
        verified prefix against the lowest live rank's stream, then
        does the same inside every per-axis subgroup ring.  A
        content difference or a count difference raises
        ``CollectiveMismatchError`` naming the diverging rank, the issue
        index, and both call sites (tags); evicted ranks are excluded
        and reported as missing participants in the returned
        :class:`LockstepReport`.
        """
        live = self.live_ranks
        if not live:
            return self._report(point)
        base_rank = live[0]
        base = self._streams[base_rank]
        lengths = {r: len(self._streams[r]) for r in live}
        common = min(lengths.values())
        for pos in range(self._checked, common):
            want = base[pos]
            for rank in live:
                got = self._streams[rank][pos]
                if got != want:
                    raise _mismatch_error(
                        self._divergence_message(
                            point, base_rank, want, rank, got
                        )
                    )
        self._checked = common
        if len(set(lengths.values())) > 1:
            detail = ", ".join(
                f"rank {r}: {n}" for r, n in sorted(lengths.items())
            )
            laggards = sorted(r for r, n in lengths.items() if n == common)
            ahead = self._streams[max(lengths, key=lengths.get)][common]
            raise _mismatch_error(
                f"lockstep divergence at {point}: rank(s) "
                f"{laggards} stopped after {common} collective(s) while "
                f"others issued #{ahead[0]} `{ahead[1]}` "
                f"(tag={ahead[2]!r}) — on a real cluster the ranks ahead "
                f"block forever ({detail})"
            )
        for axis, rings in self.axis_rings.items():
            for i, ring in enumerate(rings):
                ring.check(f"{point}:{axis}[{i}]")
        return self._report(point)

    def _report(self, point: str) -> LockstepReport:
        return LockstepReport(
            point=point,
            world_size=self.world_size,
            counts=tuple(len(s) for s in self._streams),
            evicted=tuple(sorted(self._evicted.items())),
            verified=self._checked,
        )

    def _divergence_message(
        self, point: str, base_rank: int, want: tuple, rank: int, got: tuple
    ) -> str:
        def fmt(fp: tuple) -> str:
            idx, op, tag, shape, dtype = fp
            return (
                f"#{idx} `{op}` (tag={tag!r}, shape={shape}, "
                f"dtype={dtype or '-'})"
            )

        return (
            f"lockstep divergence at {point}: rank {rank} diverges from "
            f"rank {base_rank} at collective #{want[0]} — "
            f"rank {base_rank} issued {fmt(want)} but rank {rank} issued "
            f"{fmt(got)}; on a real cluster these never match and both "
            "ranks deadlock"
        )

    # -- buffer hashing ------------------------------------------------

    def _digest(self, array: np.ndarray) -> int:
        if array.flags.c_contiguous:
            flat = array.reshape(-1)
        else:
            flat = np.ascontiguousarray(array).reshape(-1)
        if self.hash_mode == "sample" and flat.nbytes > 2 * self.sample_bytes:
            k = max(1, self.sample_bytes // max(1, flat.itemsize))
            # Chain head and tail through one CRC — no concatenation copy.
            return zlib.crc32(flat[-k:], zlib.crc32(flat[:k]))
        return zlib.crc32(flat)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LockstepVerifier(world_size={self.world_size}, "
            f"hash_mode={self.hash_mode!r}, "
            f"observed={self.collectives_observed})"
        )
