"""Outside-in span recorder for the traced run.

The benchmark wraps, from its own files, the calls into each layer's
public functions: a declarative patch table names ``(metric, module,
attribute)``, and :class:`Tracer` replaces each attribute with a thin
wrapper that records a span (name, op id, parent, start, end) in
memory.  Nothing inside ``src/repro`` knows it is being traced.

Self time of a span is its duration minus the part its direct children
cover (one thread, so children never overlap).  A patch-table entry that
no longer resolves — a later refactor renamed the attribute — is
reported as *unresolved* and its metric reads ``null``; it never raises,
so a simplification PR cannot break the benchmark that judges it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

__all__ = ["PATCH_TABLE", "SPAN_COLUMNS", "Patch", "Tracer", "summarize"]


@dataclass(frozen=True)
class Patch:
    """One wrapped attribute: spans named ``metric`` around ``module:attr``.

    ``observe(counters, args, kwargs, result)`` optionally counts work at
    the same boundary (rows offered, steps that fell back, ...).
    """

    metric: str
    module: str
    attr: str
    observe: Callable | None = None


# A span is a plain list (cheapest thing to build in the hot wrapper):
# [name, op, parent index (-1 for a root), start, end].
NAME, OP, PARENT, START, END = range(5)
SPAN_COLUMNS = ["name", "op", "parent", "start", "end"]


class Tracer:
    """Records spans for every patched call made inside ``op()`` blocks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.unresolved: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------

    def op(self, fn: Callable):
        """Run ``fn()`` as one op under a root span; returns its result."""
        self._op += 1
        span = ["op", self._op, -1, self.clock(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn()
        finally:
            span[END] = self.clock()
            self._stack.pop()

    def wrap(self, patch: Patch, fn: Callable) -> Callable:
        """The replacement for one patched attribute.

        This is the hot path of the traced run (25k spans per serving
        episode), hence the closure locals, the single call level and no
        bookkeeping beyond the span itself.
        """
        name, observe, counters = patch.metric, patch.observe, self.counters
        stack, spans, clock = self._stack, self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside any op: stay out of the way
                return fn(*args, **kwargs)
            span = [name, self._op, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self, table: list[Patch]) -> None:
        """Wrap every resolvable entry; note the rest as unresolved."""
        for patch in table:
            try:
                owner = importlib.import_module(patch.module)
                *path, leaf = patch.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.unresolved.append(f"{patch.module}:{patch.attr}")
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(patch, raw.__func__))
            else:
                wrapped = self.wrap(patch, raw)
            self._restore.append((owner, leaf, raw))
            setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, raw = self._restore.pop()
            setattr(owner, leaf, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def summarize(tracer: Tracer) -> dict:
    """Per-name totals over all recorded spans, in seconds.

    ``inclusive`` skips spans nested under a same-named ancestor so a
    mesh collective that funnels into the flat communicator counts
    once; ``self`` is duration minus direct children; ``calls`` counts
    every span.  ``root_total`` / ``root_self`` cover the op spans.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    inclusive: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    root_total = root_self = 0.0
    for span, covered in zip(spans, child_time):
        name, duration = span[NAME], span[END] - span[START]
        if span[PARENT] < 0:
            root_total += duration
            root_self += duration - covered
            continue
        calls[name] += 1
        self_time[name] += duration - covered
        ancestor = span[PARENT]
        while ancestor >= 0 and spans[ancestor][NAME] != name:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:  # not nested under a same-named span
            inclusive[name] += duration
    return {
        "inclusive": dict(inclusive),
        "self": dict(self_time),
        "calls": dict(calls),
        "root_total": root_total,
        "root_self": root_self,
    }


# ---------------------------------------------------------------------------
# the patch table
# ---------------------------------------------------------------------------


def _count_fallback(counters, args, kwargs, result) -> None:
    counters["nn.batched_steps"] += 1
    if result is None:
        counters["nn.batched_fallbacks"] += 1


def _count_offered(counters, args, kwargs, result) -> None:
    # UniqueExchange.iexchange(self, comm, grads, tag=...)
    grads = kwargs["grads"] if "grads" in kwargs else args[2]
    counters["core.rows_offered"] += sum(g.indices.size for g in grads)


def _count_unique(counters, args, kwargs, result) -> None:
    # PendingSparseExchange.wait() -> one shared SparseGrad per rank
    counters["core.rows_unique"] += result[0].indices.size


def _count_mesh_rows(counters, args, kwargs, result) -> None:
    # sparse_mesh_exchange(mesh_comm, grads, ...) -> SparseGrad per replica
    grads = kwargs["grads"] if "grads" in kwargs else args[1]
    counters["core.rows_offered"] += sum(g.indices.size for g in grads)
    counters["core.rows_unique"] += result[0].indices.size


def _methods(metric: str, module: str, cls: str, *names: str) -> list[Patch]:
    return [Patch(metric, module, f"{cls}.{n}") for n in names]


_COLLECTIVES = ("iallreduce", "iallgather", "ibroadcast", "ireduce_scatter")

#: ``(metric, dotted module path, attribute)`` — where each layer's time
#: is measured.  Module-level functions are patched in the namespace
#: that *calls* them (``from x import f`` binds a second name).
PATCH_TABLE: list[Patch] = [
    # data
    Patch("data.batch", "repro.data.batching", "ShardedBatcher.batch"),
    # train: per-rank model execution
    Patch("train.rank_exec", "repro.train.word_lm", "WordLanguageModel.step"),
    Patch("train.rank_exec", "repro.train.char_lm", "CharLanguageModel.step"),
    # nn: the stacked-replica executor
    Patch(
        "nn.batched_exec", "repro.nn.batched", "BatchedCharLMExecutor.step",
        _count_fallback,
    ),
    # core: gradient sync and the sparse exchanges
    Patch(
        "core.sync", "repro.core.embedding_sync",
        "GradientSynchronizer.sync_replicas",
    ),
    Patch(
        "core.exchange", "repro.core.sparse_exchange",
        "UniqueExchange.iexchange", _count_offered,
    ),
    Patch(
        "core.exchange", "repro.core.sparse_exchange",
        "PendingSparseExchange.wait", _count_unique,
    ),
    Patch(
        "core.mesh_exchange", "repro.core.embedding_sync",
        "dense_mesh_allreduce",
    ),
    Patch(
        "core.mesh_exchange", "repro.core.embedding_sync",
        "sparse_mesh_exchange", _count_mesh_rows,
    ),
    # core.wire: codecs and the fused ring
    Patch("core.wire.encode", "repro.core.compression", "Fp16Codec.encode"),
    Patch("core.wire.encode", "repro.core.wire.codecs", "EntropyCodec.encode"),
    Patch("core.wire.decode", "repro.core.compression", "Fp16Codec.decode"),
    Patch("core.wire.decode", "repro.core.wire.codecs", "LosslessIntCodec.decode"),
    Patch("core.wire.decode", "repro.core.wire.transfer", "decode_frames"),
    Patch(
        "core.wire.fused_reduce", "repro.core.embedding_sync",
        "icompressed_allreduce",
    ),
    Patch(
        "core.wire.fused_reduce", "repro.core.wire.fused",
        "PendingFusedReduce.wait",
    ),
    # cluster: issue and wait on the flat and the mesh communicator
    *_methods(
        "cluster.issue", "repro.cluster.communicator", "Communicator",
        *_COLLECTIVES, "issue_scheduled",
    ),
    *_methods(
        "cluster.issue", "repro.cluster.mesh", "MeshCommunicator",
        *_COLLECTIVES, "transfer",
    ),
    Patch("cluster.wait", "repro.cluster.communicator", "WorkHandle.wait"),
    Patch(
        "cluster.timeline_compute", "repro.cluster.timeline",
        "Timeline.record_compute",
    ),
    # optim
    Patch("optim.step", "repro.optim.sgd", "SGD.step"),
    Patch("optim.step", "repro.optim.adam", "Adam.step"),
    Patch("optim.replicate", "repro.optim.adam", "Adam.replicate_group"),
    Patch("optim.replicate", "repro.optim.adam", "Adam.replicate_from"),
    # telemetry
    Patch(
        "telemetry.record", "repro.telemetry.session",
        "TelemetrySession.record_step",
    ),
    # serve
    Patch("serve.decoder", "repro.serve.decoders", "WordLMDecoder.step"),
    Patch("serve.lookup", "repro.serve.engine", "sharded_embedding_lookup"),
    Patch("serve.prefill", "repro.serve.engine", "ServingEngine._admit"),
    Patch(
        "serve.prefill", "repro.serve.engine",
        "ServingEngine._speculative_prefill",
    ),
    *_methods(
        "serve.scheduler", "repro.serve.scheduler",
        "ContinuousBatchingScheduler",
        "__init__", "poll", "record_token", "queued_ids", "next_arrival_s",
    ),
    *_methods(
        "serve.cache", "repro.serve.state_cache", "RecurrentStateCache",
        "get", "peek", "put", "pin", "release", "__contains__",
    ),
    Patch("serve.state_rows", "repro.serve.engine", "stack_states"),
    Patch("serve.state_rows", "repro.serve.engine", "unstack_state"),
    Patch("serve.sample", "repro.serve.engine", "sample_token"),
]
