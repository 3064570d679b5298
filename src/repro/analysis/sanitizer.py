"""Runtime sanitizer: MPI-style mismatch detection for the SPMD simulator.

Real HPC stacks catch communication bugs with MPI correctness tools and
NCCL debug layers; the simulator's equivalent is :class:`Sanitizer`, an
opt-in :class:`~repro.cluster.communicator.CollectiveHook` on a
:class:`~repro.cluster.communicator.Communicator`'s issue funnel that
validates every collective — blocking, ``i*``, per-axis, explicitly
scheduled — before it executes:

* **rank-count agreement** — the per-rank list must carry exactly one
  array per rank;
* **shape agreement** — allreduce/reduce_scatter payloads must
  be shape-identical across the ranks of a ring (an allgatherv may be
  ragged in its leading dim only; on an axis view each subgroup is
  checked on its own, since shards of different subgroups legitimately
  differ).  On a real cluster a mismatch deadlocks or corrupts; here it
  would silently skew Tables III-V;
* **dtype agreement** — mixed dtypes within a ring mean at least one
  rank fell off the FP16/FP32 discipline of §III-C;
* **payload hygiene** — NaN/Inf in any payload but an FP16 one, whose
  inf is the wire's overflow and the trainer's post-sync check's call;
* **scope attribution** — collectives must run inside a
  ``with timeline.scope(...)`` block so their cost is attributable.

The async engine adds two failure modes of its own, covered here:

* **dropped handles** — an ``i*`` collective whose
  :class:`~repro.cluster.communicator.WorkHandle` is never ``wait()``\\ ed
  leaks scratch for the rest of the run and silently omits the
  completion from the timeline.  The funnel's pending set knows every
  such handle and :meth:`Sanitizer.finish` raises
  :class:`DroppedHandleError` for any still un-awaited;
* **in-flight mutation** — every payload buffer is hashed when its
  collective is issued and re-hashed at its first ``wait()``; a write in
  between raises :class:`InFlightMutationError`.  Buffers longer than two
  :data:`SAMPLE_BYTES` windows are hashed on their head and tail only,
  and a fused run member by member.

Cross-rank issue-order divergence — the bug that deadlocks a real
cluster — cannot happen here: one funnel call carries every rank's
payload, and the communicator refuses a per-rank list that is not
``world_size`` long, so no rank can issue a collective the others skip.

Every violation raises a :class:`SanitizerError` subclass whose message
names the op, the offending rank(s), and a concrete counterexample.

:class:`SanitizedWireCodec` applies the same philosophy to the
lossless integer codecs of :mod:`repro.core.wire`: every encode is
roundtripped and compared bit-for-bit against the input.  The FP16
codec needs no twin: an out-of-range value encodes as ``inf``, and the
trainer's post-sync finiteness check decides that step.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence

import numpy as np

from ..cluster.collectives import FusedRun
from ..cluster.communicator import CollectiveHook, Communicator
from ..core.compression import WireCodec
from ..errors import ReproError

__all__ = [
    "CollectiveMismatchError",
    "DoubleApplyError",
    "DroppedHandleError",
    "InFlightMutationError",
    "SAMPLE_BYTES",
    "SanitizedWireCodec",
    "Sanitizer",
    "SanitizerError",
    "assert_clean_retry_state",
    "sanitize_codec",
]

#: How many offending elements a counterexample report shows.
_MAX_EXAMPLES = 5

#: Bytes hashed at each end of a payload buffer by the in-flight check.
SAMPLE_BYTES = 1024


class SanitizerError(ReproError, RuntimeError):
    """Base class for everything the sanitizer detects."""


class CollectiveMismatchError(SanitizerError):
    """Per-rank disagreement in a collective's payload list."""


class DroppedHandleError(SanitizerError):
    """An ``i*`` collective's work handle was never ``wait()``\\ ed.

    The collective's scratch stays charged to every device and its
    completion never lands on the timeline — the async engine's
    equivalent of a leaked request.  Raised by :meth:`Sanitizer.finish`.
    """


class InFlightMutationError(SanitizerError):
    """A buffer handed to an ``i*`` collective was written before wait().

    The collective captured the payload by reference; on real hardware
    the NIC may read either the old or the new value.  Raised by the
    :class:`Sanitizer`'s issue/wait buffer-hash check at ``wait()``.
    """


class DoubleApplyError(SanitizerError):
    """A fault-retry would double-apply a gradient.

    The supervised recovery loop of :mod:`repro.train.resilience` rewinds
    a faulted step and replays it from scratch.  The replay is only
    equivalent to a clean first attempt if *nothing* from the aborted
    attempt survives: a residual dense ``grad``, queued sparse gradient
    or pre-sync rank row on any parameter would be *accumulated into* by
    the retried backward pass, and the optimizer would apply the
    gradient twice — silently, since every rank double-applies together
    and stays "synchronized".  Raised by :func:`assert_clean_retry_state`.
    """


def assert_clean_retry_state(replicas, comm=None) -> None:
    """The no-double-apply invariant, checked before a fault retry.

    ``replicas`` is a module list (a trainer's is its one model).
    Raises :class:`DoubleApplyError` if any module still holds gradient
    state (a dense ``grad``, queued ``sparse_grads`` or pre-sync rank
    rows in ``stacked_grads``) from the aborted attempt, or — when
    ``comm`` is given — if async work is still in
    flight (an un-awaited handle from the aborted step would complete
    into the retried one, merging two attempts' accounting).
    """
    for rank, replica in enumerate(replicas):
        for name, p in replica.named_parameters():
            if p.grad is not None:
                raise DoubleApplyError(
                    f"retry with residual state: rank {rank} parameter "
                    f"{name!r} still holds a dense gradient from the "
                    "aborted attempt — the replayed backward would "
                    "accumulate into it and the step would apply the "
                    "gradient twice"
                )
            if p.sparse_grads:
                raise DoubleApplyError(
                    f"retry with residual state: rank {rank} parameter "
                    f"{name!r} still queues {len(p.sparse_grads)} sparse "
                    "gradient(s) from the aborted attempt — the retried "
                    "exchange would ship and apply them twice"
                )
            if p.stacked_grads:
                raise DoubleApplyError(
                    f"retry with residual state: rank {rank} parameter "
                    f"{name!r} still holds pre-sync rank rows from the "
                    "aborted attempt — the retried step would accumulate "
                    "into them and apply the gradient twice"
                )
    if comm is not None and comm.pending_work:
        ops = ", ".join(
            f"{h.op}[tag={h.tag!r}]" for h in list(comm.pending_work)[:5]
        )
        raise DoubleApplyError(
            f"retry with {len(comm.pending_work)} async collective(s) "
            f"still in flight ({ops}) — the aborted attempt must be "
            "drained (comm.wait_all()) before the step is replayed"
        )


def _describe(values: np.ndarray, indices: np.ndarray) -> str:
    shown = indices[:_MAX_EXAMPLES]
    pairs = ", ".join(
        f"[{int(i)}]={values.reshape(-1)[int(i)]}" for i in shown
    )
    extra = "" if indices.size <= _MAX_EXAMPLES else (
        f" (+{indices.size - _MAX_EXAMPLES} more)"
    )
    return pairs + extra


class Sanitizer(CollectiveHook):
    """Validating hook on a communicator's collective funnel.

    ``Sanitizer(comm)`` appends itself to ``comm.hooks`` (a
    :class:`~repro.cluster.failures.ChaosCommunicator` works the same);
    from then on every collective issued on ``comm`` or on one of its
    axis views is checked.  :meth:`attach` moves it onto another
    communicator — the recovery loop's next generation keeps the same
    sanitizer and its :attr:`collectives_checked` count.
    """

    def __init__(self, comm: Communicator):
        self.comm: Communicator | None = None
        #: Collectives that passed the issue-time checks.
        self.collectives_checked = 0
        #: id(handle) -> [(rank, buffer, digest), ...] until first wait.
        self._inflight: dict[int, list[tuple]] = {}
        self.attach(comm)

    def attach(self, comm: Communicator) -> None:
        """Hook onto ``comm``'s funnel, leaving the previous one's."""
        if self.comm is not None:
            self.comm.hooks.remove(self)
        comm.hooks.append(self)
        self.comm = comm

    # ------------------------------------------------------------------
    # funnel hooks
    # ------------------------------------------------------------------

    def pre_issue(self, comm, op: str, tag: str, arrays) -> None:
        """Validate one collective before it touches any state."""
        if arrays is not None:
            world = comm.world_size
            if len(arrays) != world:
                raise CollectiveMismatchError(
                    f"{op}[tag={tag!r}]: got {len(arrays)} per-rank arrays "
                    f"for a {world}-rank communicator — on a real cluster "
                    f"{abs(len(arrays) - world)} rank(s) would hang in this "
                    "collective"
                )
            for ranks in comm.groups:
                head = arrays[ranks[0]]
                if not isinstance(head, FusedRun):
                    self._validate_ring(op, tag, arrays, ranks)
                    continue
                # A fused run is checked member by member, by name.
                if any(
                    not isinstance(arrays[r], FusedRun)
                    or arrays[r].keys() != head.keys()
                    for r in ranks
                ):
                    raise CollectiveMismatchError(
                        f"{op}[tag={tag!r}]: ranks {list(ranks)} bring "
                        "fused runs of different members"
                    )
                for name in head:
                    member = {r: arrays[r][name] for r in ranks}
                    self._validate_ring(op, f"{tag}[{name}]", member, ranks)
        if comm.timeline.current_scope == "":
            raise SanitizerError(
                f"{op}[tag={tag!r}] issued outside any ledger scope: wrap "
                "the call in `with comm.timeline.scope(name):` so its cost "
                "is attributed"
            )
        self.collectives_checked += 1

    def post_issue(self, comm, handle, arrays) -> None:
        """Hash every payload buffer the issued collective captured."""
        if arrays is not None:
            self._inflight[id(handle)] = [
                (rank, a, _digest(a)) for rank, a in enumerate(arrays)
            ]

    def on_wait(self, handle) -> None:
        """Re-hash the handle's payload buffers; a change is a race."""
        for rank, array, digest in self._inflight.pop(id(handle), ()):
            if _digest(array) != digest:
                raise InFlightMutationError(
                    f"rank {rank}'s buffer for `{handle.op}` "
                    f"(tag={handle.tag!r}) was mutated between issue and "
                    "wait(): the in-flight transfer may read either value "
                    "— wait() before writing, or stage into a copy"
                )

    def _validate_ring(
        self,
        op: str,
        tag: str,
        arrays: Sequence[np.ndarray],
        ranks: Sequence[int],
    ) -> None:
        """Type, dtype, shape and payload hygiene among one ring's ranks."""
        for rank in ranks:
            if not isinstance(arrays[rank], np.ndarray):
                raise CollectiveMismatchError(
                    f"{op}[tag={tag!r}]: rank {rank} supplied "
                    f"{type(arrays[rank]).__name__}, not an ndarray"
                )

        def per_rank(fmt) -> str:
            return ", ".join(f"rank {r}: {fmt(arrays[r])}" for r in ranks)

        first = arrays[ranks[0]]
        dtype = first.dtype
        if any(arrays[r].dtype != dtype for r in ranks):
            raise CollectiveMismatchError(
                f"{op}[tag={tag!r}]: per-rank dtype mismatch "
                f"({per_rank(lambda a: a.dtype)}) — "
                "at least one rank fell off the wire-format discipline"
            )

        if op == "allgather":  # allgatherv: ragged leading dim only
            if any(
                arrays[r].ndim != first.ndim
                or arrays[r].shape[1:] != first.shape[1:]
                for r in ranks
            ):
                raise CollectiveMismatchError(
                    f"{op}[tag={tag!r}]: per-rank shapes disagree beyond "
                    f"the gather axis ({per_rank(lambda a: a.shape)}) — "
                    "allgatherv permits ragged leading dims only"
                )
        elif any(arrays[r].shape != first.shape for r in ranks):
            raise CollectiveMismatchError(
                f"{op}[tag={tag!r}]: per-rank shape mismatch "
                f"({per_rank(lambda a: a.shape)}) — "
                "every rank must contribute the same signature or the "
                "reduction is undefined"
            )

        if dtype == np.float16:
            # An inf here is the FP16 wire's overflow: the trainer's
            # post-sync check skips that step or raises, not this scan.
            return
        for rank in ranks:
            a = arrays[rank]
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size:
                raise CollectiveMismatchError(
                    f"{op}[tag={tag!r}]: rank {rank} payload contains "
                    f"{bad.size} non-finite value(s): "
                    f"{_describe(a, bad)}"
                )

    # ------------------------------------------------------------------
    # end-of-run invariants
    # ------------------------------------------------------------------

    def finish(self) -> None:
        """End-of-run checks on the communicator it is attached to.

        Raises :class:`DroppedHandleError` if any collective is still
        in flight (issued, never awaited), then verifies the ledger's
        scope stack is balanced.
        """
        dropped = self.comm.pending_work
        if dropped:
            detail = ", ".join(
                f"{h.op}[tag={h.tag!r}]" for h in dropped[:5]
            )
            extra = "" if len(dropped) <= 5 else f" (+{len(dropped) - 5} more)"
            raise DroppedHandleError(
                f"{len(dropped)} async collective(s) were issued but never "
                f"wait()ed: {detail}{extra} — their scratch stays charged "
                "to every device and their completion never reaches the "
                "timeline"
            )
        self.comm.timeline.assert_balanced()


def _digest(array: np.ndarray | FusedRun, crc: int = 0) -> int:
    """CRC of a buffer's head and tail windows (all of a short one)."""
    if isinstance(array, FusedRun):  # member by member, one chain
        for member in array.values():
            crc = _digest(member, crc)
        return crc
    flat = np.ascontiguousarray(array).reshape(-1)
    if flat.nbytes > 2 * SAMPLE_BYTES:
        k = max(1, SAMPLE_BYTES // flat.itemsize)
        # Chain head and tail through one CRC — no concatenation copy.
        return zlib.crc32(flat[-k:], zlib.crc32(flat[:k], crc))
    return zlib.crc32(flat, crc)


class SanitizedWireCodec(WireCodec):
    """Roundtrip-checking wrapper for *lossless* wire codecs.

    The lossless integer codecs of :mod:`repro.core.wire` promise
    bit-exact ``decode(encode(x)) == x``.  This wrapper enforces the
    promise at encode time: every frame it produces is immediately
    decoded back and compared bit-for-bit (values, dtype, and shape)
    against the input, so a packing bug surfaces at the collective that
    introduced it instead of as a silently corrupted index exchange.
    Decode additionally checks the output dtype matches the request.

    All metadata (``name``, ``lossless``, ``data_dependent``,
    ``wire_dtype``, ``estimate_nbytes``) delegates to the wrapped codec,
    so cost models and ledger scopes see the same identity.
    """

    def __init__(self, inner: WireCodec):
        if not inner.lossless:
            raise ValueError(
                f"SanitizedWireCodec requires a lossless codec; "
                f"{inner.name!r} is lossy"
            )
        self._inner = inner

    @property
    def name(self) -> str:
        """The wrapped codec's name (ledger scopes stay comparable)."""
        return self._inner.name

    @property
    def lossless(self) -> bool:  # type: ignore[override]
        """Delegates to the wrapped codec (always True here)."""
        return self._inner.lossless

    @property
    def data_dependent(self) -> bool:  # type: ignore[override]
        """Delegates to the wrapped codec."""
        return self._inner.data_dependent

    def wire_dtype(self, dtype: np.dtype) -> np.dtype | None:
        """Delegates to the wrapped codec."""
        return self._inner.wire_dtype(dtype)

    def estimate_nbytes(self, arr: np.ndarray) -> int:
        """Delegates to the wrapped codec's size estimator."""
        return self._inner.estimate_nbytes(arr)

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Encode, then verify the frame decodes back bit-for-bit."""
        frame = self._inner.encode(arr)
        back = self._inner.decode(frame, arr.dtype)
        if back.dtype != arr.dtype or back.shape != arr.shape:
            raise CollectiveMismatchError(
                f"{self.name} roundtrip changed the array signature: "
                f"{arr.dtype}{arr.shape} -> {back.dtype}{back.shape}"
            )
        if not np.array_equal(back, arr):
            bad = np.flatnonzero(back != arr)
            raise CollectiveMismatchError(
                f"{self.name} roundtrip is not bit-exact: {bad.size} "
                f"element(s) differ; input {_describe(arr, bad)} vs "
                f"decoded {_describe(back, bad)} — the codec violated "
                "its lossless contract"
            )
        return frame

    def decode(self, arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Decode and verify the output dtype matches the request."""
        out = self._inner.decode(arr, dtype)
        if out.dtype != np.dtype(dtype):
            raise CollectiveMismatchError(
                f"{self.name} decode returned dtype {out.dtype}, "
                f"caller asked for {np.dtype(dtype)}"
            )
        return out


def sanitize_codec(codec: WireCodec | None) -> WireCodec | None:
    """Return a checking variant of ``codec`` where one exists.

    Lossless codecs gain the bit-exact roundtrip check of
    :class:`SanitizedWireCodec`; everything else (``None``, the identity
    and FP16 value codecs, an already sanitized codec) passes through
    unchanged.
    """
    if codec is None or isinstance(codec, SanitizedWireCodec):
        return codec
    return SanitizedWireCodec(codec) if codec.lossless else codec
