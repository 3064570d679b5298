"""The error vocabulary: one root, two boundary types, typed refusals.

Every exception class under ``src/repro`` derives from ``ReproError``
and keeps its builtin base.  Each parse boundary refuses bad input with
``ConfigError`` (a value the caller chose) or ``FormatError`` (bytes or
JSON read from outside).
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro
from repro.cluster.failures import FaultPlan
from repro.cluster.mesh import hybrid_mesh, parse_mesh_spec
from repro.core.wire import DeltaBitpackCodec, EntropyCodec, decode_frames
from repro.data.batching import BatchSpec
from repro.errors import ConfigError, FormatError, ReproError
from repro.serve import ServeConfig
from repro.telemetry import parts_from_json
from repro.train.config import TrainConfig, WordLMConfig

#: The builtin each class had before it joined the vocabulary.
BUILTIN_BASES = {
    "TraceValidationError": RuntimeError, "MetricError": ValueError,
    "CacheOverflowError": MemoryError, "RankFailureError": RuntimeError,
    "TransientLinkError": RuntimeError, "LedgerScopeError": RuntimeError,
    "DeviceOOMError": MemoryError, "SanitizerError": RuntimeError,
    "ConfigError": ValueError, "FormatError": ValueError,
}


def test_every_exception_class_is_a_repro_error_on_its_old_builtin():
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        classes.update(
            (obj.__name__, obj) for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        )
    assert set(classes) >= set(BUILTIN_BASES) | {"DoubleApplyError"}
    assert [c for c in classes.values() if not issubclass(c, ReproError)] == []
    for name, builtin in BUILTIN_BASES.items():
        assert issubclass(classes[name], builtin), name


def train_config(**overrides):
    fields = dict(world_size=4, batch=BatchSpec(1, 2), base_lr=0.1)
    return TrainConfig(**{**fields, **overrides})


CONFIG_ERRORS = {
    "train-field": lambda: train_config(world_size=0),
    "model-field": lambda: WordLMConfig(vocab_size=8, num_samples=8),
    "wire-codec-name": lambda: train_config(wire_codec="zstd"),
    "wire-codec-argument": lambda: train_config(wire_codec="fp16:abc"),
    "train-mesh": lambda: train_config(mesh="pipe=3"),
    "mesh-spec": lambda: parse_mesh_spec("tensor=G/0", 4),
    "mesh-axis": lambda: hybrid_mesh("expert=4", 4),
    "serve-field": lambda: ServeConfig(max_batch=0),
}


@pytest.mark.parametrize("build", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_config_boundaries_raise_config_error(build):
    with pytest.raises(ConfigError):
        build()


DELTA = DeltaBitpackCodec().encode(np.arange(0, 900, 3, dtype=np.int64))
ENTROPY = EntropyCodec().encode(np.sort(np.random.default_rng(0).zipf(1.2, 400)))


def plan(*events):
    return FaultPlan.from_dict({"events": list(events)})


FORMAT_ERRORS = {
    "frame-header-cut": lambda: decode_frames(DELTA[:5], np.int64),
    "frame-kind": lambda: decode_frames(np.r_[np.uint8(9), DELTA[1:]], np.int64),
    "frame-dtype": lambda: decode_frames(DELTA, np.int32),
    "delta-payload-cut": lambda: decode_frames(DELTA[:15], np.int64),
    "entropy-payload-cut": lambda: decode_frames(ENTROPY[:40], np.int64),
    "plan-not-an-object": lambda: FaultPlan.from_dict([]),
    "plan-missing-key": lambda: plan({"kind": "rank_loss"}),
    "plan-unknown-kind": lambda: plan({"kind": "meteor", "collective_index": 0}),
    "plan-bad-event": lambda: plan({"kind": "rank_loss", "collective_index": -1}),
    "parts-not-json": lambda: parts_from_json("{"),
    "parts-version": lambda: parts_from_json({"version": 1}),
    "parts-missing-keys": lambda: parts_from_json({"version": 2, "generations": [{}]}),
}


@pytest.mark.parametrize("read", FORMAT_ERRORS.values(), ids=FORMAT_ERRORS)
def test_format_boundaries_raise_format_error(read):
    with pytest.raises(FormatError):
        read()


def test_fault_plan_file_that_is_not_json_is_a_format_error(tmp_path):
    (tmp_path / "plan.json").write_text("seed: 0")
    with pytest.raises(FormatError, match="not JSON"):
        FaultPlan.load(tmp_path / "plan.json")
