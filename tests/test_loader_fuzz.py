"""One mutation property per loader of outside bytes.

A fault plan, trace parts and a v1/v2 checkpoint written by real runs
are mutated (a JSON node or an array replaced, dropped or added, bytes
flipped or cut) and loaded again.  Each loads or raises a
:class:`~repro.errors.ReproError` — never an ``IndexError``, a
``struct.error``, an untyped ``ValueError`` or a hang (every input is
small, so a hang shows as a stuck run, not a slow one) — and what loads
works: a plan holds what was written, parts merge into one track pair
per declared rank, a checkpoint trains a step.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import FaultPlan
from repro.errors import ReproError
from repro.telemetry import (
    GenerationPart,
    merged_trace,
    parts_from_json,
    parts_to_json,
    run_totals_from_parts,
    validate_chrome_trace,
)
from repro.train import load_checkpoint, save_checkpoint

from .conformance.cells import HYBRID, conform

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1 << 20) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _nodes(value, path + (key,))


def _damage(raw: bytes, at: int, xor: int) -> bytes:
    """``raw`` with byte ``at`` xor-ed by ``xor``; cut there if 0."""
    raw = bytearray(raw)
    at %= len(raw)
    if not xor:
        return bytes(raw[:at])
    raw[at] ^= xor
    return bytes(raw)


@st.composite
def json_mutants(draw, doc) -> str:
    """``doc`` as JSON text, one node replaced, dropped or added, or its
    bytes flipped or cut."""
    if draw(st.booleans()):
        return _damage(
            json.dumps(doc).encode(), draw(st.integers(0, 1 << 16)),
            draw(st.integers(0, 255)),
        ).decode("latin-1")
    doc = copy.deepcopy(doc)
    *path, key = draw(st.sampled_from(list(_nodes(doc))[1:]))
    parent = doc
    for step in path:
        parent = parent[step]
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        parent[key] = draw(_JSON)
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent[draw(st.text(max_size=3))] = draw(_JSON)
    else:
        parent.append(draw(_JSON))
    return json.dumps(doc)


def _load(load, *args):
    """``load(*args)``, or None when it raised a ``ReproError``; any
    other exception propagates as the counterexample."""
    try:
        return load(*args)
    except ReproError:
        return None


PLAN = FaultPlan.random(3, 4, 20, n_rank_loss=1, n_straggler=1).to_dict()


@given(json_mutants(PLAN))
def test_fault_plan_mutations_load_or_raise_a_repro_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "plan.json").write_bytes(text.encode("latin-1"))
        plan = _load(FaultPlan.load, Path(tmp) / "plan.json")
    if plan is not None:
        # Every written field is loaded as written, never coerced.
        loaded = [e.to_dict() for e in plan.events]
        for event in json.loads(text)["events"]:
            assert any(
                all(type(d[k]) is type(v) and d[k] == v for k, v in event.items())
                for d in loaded
            ), event
        assert all(math.isfinite(e.slowdown) for e in plan.events)


PARTS = parts_to_json([
    GenerationPart.from_run(conform(mesh=HYBRID, steps=1).comm.timeline)
])


@given(json_mutants(PARTS))
def test_trace_parts_mutations_load_or_raise_a_repro_error(text):
    parts = _load(parts_from_json, text)
    if parts is not None:
        trace = merged_trace(parts)
        _load(validate_chrome_trace, trace)
        run_totals_from_parts(parts)
        tracks = sum(p.world_size for p in parts)
        assert all(0 <= e["pid"] < tracks for e in trace)


def _trainer():
    """Its checkpoint holds every namespace: dropout streams, momentum
    buffers, a dynamic loss scaler's counters."""
    return conform(
        model="char", optimizer="momentum", loss_scale="dynamic",
        world_size=2, steps=1,
    )


def _arrays(version: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(Path(tmp) / "c.npz", _trainer())
        with np.load(Path(tmp) / "c.npz") as data:
            arrays = {k: data[k] for k in data.files}
    if version == 1:
        arrays = {k: v for k, v in arrays.items() if not k.startswith("rng/")}
        arrays["meta/version"] = np.array(1)
    return arrays


CHECKPOINTS = {1: _arrays(1), 2: _arrays(2)}


@st.composite
def checkpoint_mutants(draw):
    """``(arrays, damage)``: one array of a v1 or v2 checkpoint dropped,
    added, reshaped, retyped or revalued, or ``(at, xor)`` byte damage."""
    arrays = dict(CHECKPOINTS[draw(st.sampled_from([1, 2]))])
    key = draw(st.sampled_from(sorted(arrays)))
    value = arrays[key]
    action = draw(st.sampled_from(
        ["drop", "add", "reshape", "retype", "revalue", "bytes"]
    ))
    if action == "drop":
        del arrays[key]
    elif action == "add":
        arrays[key.rpartition("/")[0] + "/extra"] = value
    elif action == "reshape":
        arrays[key] = np.resize(value, draw(st.sampled_from([(), (2,), (3, 1)])))
    elif action == "retype":
        dtype = draw(st.sampled_from(["int64", "uint64", "float32", "U1", "bool"]))
        arrays[key] = (
            np.zeros(value.shape, dtype) if value.dtype.kind == "U"
            else value.astype(dtype)
        )
    elif action == "revalue":
        odd = draw(st.sampled_from([-5, 0, 3, 1 << 40, np.nan, np.inf, "x"]))
        arrays[key] = np.full(value.shape, odd)
    damage = None
    if action == "bytes":
        damage = (draw(st.integers(0, 1 << 16)), draw(st.integers(0, 255)))
    return arrays, damage


@settings(max_examples=60)
@given(checkpoint_mutants())
def test_checkpoint_mutations_load_or_raise_a_repro_error(mutant):
    arrays, damage = mutant
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.npz"
        np.savez(path, **arrays)
        if damage is not None:
            path.write_bytes(_damage(path.read_bytes(), *damage))
        trainer = _trainer()
        if _load(load_checkpoint, path, trainer) is not None:
            with np.errstate(all="ignore"):
                trainer.train_step()
