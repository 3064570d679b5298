"""Checkpointing: persist and resume distributed training runs.

The SPMD trainer holds one model and one optimizer for all its data
ranks, so a checkpoint stores **one** copy of the model and optimizer
state plus the trainer's step counter, and loading writes that copy
back in place — the same single-writer scheme real data-parallel
trainers use.  What is per rank (module RNG streams) is stored per rank.

Format: a single ``.npz`` with namespaced arrays (``model/<param>``,
``optim/<key>``, ``meta/...``), portable and dependency-free.

Version history
---------------
* **v1** — model + optimizer + counters + loss-scaler state.  Resume was
  *not* bit-exact for models with stateful RNG streams (dropout): the
  restarted run re-seeded the streams from scratch.
* **v2** — adds ``rng/...`` arrays: the sampled-softmax seed assignment
  (strategy + per-group seeds + rank->group map) and every data rank's
  per-module bit-generator states (PCG64, encoded as ``uint64`` limb
  arrays so ``allow_pickle=False`` still loads them).  Resume is now
  bit-exact.  v1 checkpoints still load (without RNG restore).
  Later v2 checkpoints additionally carry ``meta/mesh``, the hybrid
  ``(pipe, tensor, data)`` mesh spec of the writing run (empty string
  for a flat world).  Loading validates shard compatibility: the
  ``pipe`` and ``tensor`` factors must match the loading trainer's mesh
  exactly (model shards cannot be re-cut on restore), while the
  ``data`` factor may shrink on elastic loads.

Elastic restarts: ``load_checkpoint(..., elastic=True)`` accepts a
trainer whose world is *smaller* than the checkpoint's — the recovery
path of :class:`~repro.train.resilience.ResilientRunner` after a
permanent rank loss.  Surviving ranks re-index densely (new rank ``r``
adopts saved rank ``r``'s streams, keys ``rng/replica{r}/...``); the
saved seed assignment is
skipped because the shrunken trainer derives its own for the new world.
"""

from __future__ import annotations

import pathlib
import zipfile
import zlib

import numpy as np

from ..core.seeding import SeedAssignment, SeedStrategy
from ..errors import FormatError
from .trainer import DistributedTrainer

__all__ = ["save_checkpoint", "load_checkpoint"]

_FORMAT_VERSION = 2

_MASK64 = (1 << 64) - 1


def _encode_rng_state(state: dict) -> np.ndarray:
    """Pack a PCG64 ``bit_generator.state`` dict into six uint64 limbs.

    The 128-bit ``state`` and ``inc`` integers become two limbs each
    (low, high), followed by the ``has_uint32``/``uinteger`` carry of a
    buffered 32-bit draw — everything needed for an exact stream resume,
    in a dtype ``np.savez``/``allow_pickle=False`` round-trips.
    """
    if state.get("bit_generator") != "PCG64":
        raise ValueError(
            f"only PCG64 streams are checkpointable, got "
            f"{state.get('bit_generator')!r}"
        )
    inner = state["state"]
    return np.array(
        [
            inner["state"] & _MASK64,
            (inner["state"] >> 64) & _MASK64,
            inner["inc"] & _MASK64,
            (inner["inc"] >> 64) & _MASK64,
            int(state.get("has_uint32", 0)),
            int(state.get("uinteger", 0)),
        ],
        dtype=np.uint64,
    )


def _decode_rng_state(limbs: np.ndarray) -> dict:
    """Inverse of :func:`_encode_rng_state`."""
    if limbs.shape != (6,) or limbs.dtype != np.uint64:
        raise FormatError(
            f"expected 6 uint64 limbs, got {limbs.dtype} of shape {limbs.shape}"
        )
    vals = [int(v) for v in limbs]
    if vals[4] > 1 or vals[5] >= 1 << 32:
        raise FormatError("the buffered-draw limbs are out of range")
    return {
        "bit_generator": "PCG64",
        "state": {
            "state": vals[0] | (vals[1] << 64),
            "inc": vals[2] | (vals[3] << 64),
        },
        "has_uint32": vals[4],
        "uinteger": vals[5],
    }


def _check_mesh_compatibility(
    saved_mesh: str,
    saved_world: int,
    trainer: DistributedTrainer,
    elastic: bool,
) -> None:
    """Reject loads that would re-cut model shards.

    The ``pipe`` and ``tensor`` factors determine how parameters are
    sharded across ranks; a checkpoint can only restore onto a trainer
    with the *same* model-shard layout.  The ``data`` factor (replica
    count) may differ when ``elastic`` — that is exactly the
    rank-loss recovery path — but never otherwise.
    """
    from ..cluster.mesh import hybrid_mesh

    if saved_mesh:
        m = hybrid_mesh(saved_mesh, saved_world)
        saved_shape = (
            m.axis_size("pipe"), m.axis_size("tensor"), m.axis_size("data")
        )
    else:
        saved_shape = (1, 1, saved_world)
    cfg_shape = trainer.config.mesh_shape
    if cfg_shape is None:
        cfg_shape = (1, 1, trainer.config.world_size)
    if saved_shape[:2] != cfg_shape[:2]:
        raise FormatError(
            f"checkpoint was written on a (pipe={saved_shape[0]}, "
            f"tensor={saved_shape[1]}) mesh but the trainer has "
            f"(pipe={cfg_shape[0]}, tensor={cfg_shape[1]}): model shards "
            f"cannot be re-cut on restore; rebuild the trainer with a "
            f"matching --mesh (only the data axis may change, and only "
            f"with elastic=True)"
        )
    if not elastic and saved_shape[2] != cfg_shape[2]:
        raise FormatError(
            f"checkpoint has data={saved_shape[2]} replica groups, "
            f"trainer has data={cfg_shape[2]}; pass elastic=True to "
            f"shrink the data axis"
        )


def save_checkpoint(path: str | pathlib.Path, trainer: DistributedTrainer) -> None:
    """Write the trainer's state (its model + optimizer) to ``path``."""
    arrays: dict[str, np.ndarray] = {
        "meta/version": np.array(_FORMAT_VERSION),
        "meta/global_step": np.array(trainer.global_step),
        "meta/data_step": np.array(trainer.data_step),
        "meta/epochs_done": np.array(trainer.epochs_done),
        "meta/world_size": np.array(trainer.config.world_size),
        "meta/mesh": np.array(trainer.config.mesh or ""),
    }
    for name, data in trainer.model.state_dict().items():
        arrays[f"model/{name}"] = data
    opt_state = trainer.optimizer.state_dict()
    for key, value in opt_state.items():
        arrays[f"optim/{key}"] = np.asarray(value)
    if trainer.scaler is not None:
        arrays["scaler/scale"] = np.array(trainer.scaler.scale)
        clean = getattr(trainer.scaler, "_clean_steps", None)
        if clean is not None:
            arrays["scaler/clean_steps"] = np.array(clean)
        arrays["scaler/skipped_steps"] = np.array(trainer.skipped_steps)
    # v2: sampled-softmax seed assignment + per-rank module RNG
    # streams, so a resumed run consumes *identical* randomness.
    assignment = trainer.seed_assignment
    arrays["rng/strategy"] = np.array(assignment.strategy.value)
    arrays["rng/group_of_rank"] = np.asarray(assignment.group_of_rank)
    arrays["rng/seed_of_group"] = np.asarray(assignment.seed_of_group)
    for rank, states in enumerate(trainer.rank_rng_state()):
        for mod_path, state in states.items():
            arrays[f"rng/replica{rank}/{mod_path}"] = _encode_rng_state(state)
    np.savez(path, **arrays)


def _scalar(data, key: str, kinds: str, minimum: int | None = None):
    """The 0-d array ``key`` as a Python value whose dtype kind is one
    of ``kinds`` (``"iu"`` integers, ``"f"`` floats, ``"U"`` text)."""
    arr = data[key]
    if arr.shape != () or arr.dtype.kind not in kinds:
        raise FormatError(
            f"{key} must be a scalar of dtype kind {kinds!r}, got "
            f"{arr.dtype} of shape {arr.shape}"
        )
    value = arr.item()
    if minimum is not None and value < minimum:
        raise FormatError(f"{key} must be >= {minimum}, got {value}")
    if arr.dtype.kind == "f" and not np.isfinite(value):
        raise FormatError(f"{key} must be finite, got {value}")
    return value


def _matching(saved: dict, want: dict, what: str) -> None:
    """``saved`` arrays have ``want``'s keys, shapes and dtype kinds, and
    hold no non-finite float."""
    if set(saved) != set(want):
        raise FormatError(
            f"{what} state mismatch: missing {sorted(set(want) - set(saved))}, "
            f"unexpected {sorted(set(saved) - set(want))}"
        )
    for key, value in want.items():
        got, value = saved[key], np.asarray(value)
        if got.shape != value.shape or got.dtype.kind != value.dtype.kind:
            raise FormatError(
                f"{what} {key!r}: checkpoint holds {got.dtype} {got.shape}, "
                f"the trainer {value.dtype} {value.shape}"
            )
        if got.dtype.kind == "f" and not np.isfinite(got).all():
            raise FormatError(f"{what} {key!r} holds a non-finite value")


def _read_checkpoint(data, trainer: DistributedTrainer, elastic: bool) -> dict:
    """Every array of ``data`` checked against ``trainer``, untouched."""
    for key, value in data.items():
        if not isinstance(value, np.ndarray):
            raise FormatError(f"checkpoint member {key!r} is not an array")
    version = _scalar(data, "meta/version", "iu")
    if version not in (1, _FORMAT_VERSION):
        raise FormatError(f"unsupported checkpoint version {version}")
    world = _scalar(data, "meta/world_size", "iu", minimum=1)
    if not elastic and world != trainer.config.world_size:
        raise FormatError(
            f"checkpoint was written at world size {world}, trainer "
            f"has {trainer.config.world_size}"
        )
    if elastic and trainer.config.world_size > world:
        raise FormatError(
            f"elastic load cannot grow the world: checkpoint has "
            f"{world} ranks, trainer wants {trainer.config.world_size}"
        )
    saved_mesh = _scalar(data, "meta/mesh", "U") if "meta/mesh" in data else ""
    _check_mesh_compatibility(saved_mesh, world, trainer, elastic)
    if "optim/clip_norm" in data:
        # Written by a run that set the removed gradient clip:
        # resuming it unclipped would change the training silently.
        raise FormatError(
            "checkpoint key 'optim/clip_norm' holds a gradient clip, "
            "which SGD no longer applies; it cannot be resumed"
        )
    out: dict = {
        key: _scalar(data, f"meta/{key}", "iu", minimum=0)
        for key in ("global_step", "data_step", "epochs_done")
    }
    spaces: dict[str, dict] = {"model": {}, "optim": {}, "scaler": {}, "rng": {}}
    for key, value in data.items():
        space, _, name = key.partition("/")
        if space != "meta":
            if space not in spaces:
                raise FormatError(f"unexpected checkpoint key {key!r}")
            spaces[space][name] = value
    out["model"] = spaces["model"]
    _matching(
        out["model"],
        {n: p.data for n, p in trainer.model.named_parameters()},
        "model",
    )
    _matching(spaces["optim"], trainer.optimizer.state_dict(), "optimizer")
    # Scalars round-trip as 0-d arrays; optimizers expect numbers.
    out["optim"] = {
        k: (v.item() if v.ndim == 0 else v) for k, v in spaces["optim"].items()
    }
    out["rng"] = _read_rng(data, spaces["rng"], version, trainer, elastic)
    out["scaler"] = None
    if spaces["scaler"]:
        if trainer.scaler is None:
            raise FormatError(
                "checkpoint carries loss-scaler state but the trainer "
                "was built without a scaler"
            )
        unknown = set(spaces["scaler"]) - {"scale", "clean_steps", "skipped_steps"}
        if unknown:
            raise FormatError(f"unexpected scaler keys {sorted(unknown)}")
        clean = None
        if "scaler/clean_steps" in data:
            clean = _scalar(data, "scaler/clean_steps", "iu", minimum=0)
        scale = _scalar(data, "scaler/scale", "f")
        if not scale > 0:
            raise FormatError(f"scaler/scale must be positive, got {scale}")
        out["scaler"] = (
            scale, clean, _scalar(data, "scaler/skipped_steps", "iu", minimum=0)
        )
    return out


def _read_rng(data, saved: dict, version: int, trainer, elastic: bool):
    """The v2 seed assignment and per-rank streams (None for v1).

    Every data rank of the trainer must find exactly its own stream
    paths; saved ranks past the trainer's are only allowed on an elastic
    load (they are the lost ranks').
    """
    if version < 2:
        if saved:
            raise FormatError("a version-1 checkpoint carries no rng/ arrays")
        return None
    strategy = SeedStrategy(_scalar(data, "rng/strategy", "U"))
    groups = saved.pop("group_of_rank")
    seeds = saved.pop("seed_of_group")
    del saved["strategy"]
    if seeds.ndim != 1 or seeds.dtype.kind != "u" or seeds.size == 0:
        raise FormatError("rng/seed_of_group must be a non-empty uint vector")
    if (
        groups.ndim != 1
        or groups.dtype.kind not in "iu"
        or (groups.size and not 0 <= groups.min() <= groups.max() < seeds.size)
    ):
        raise FormatError(
            "rng/group_of_rank must be a vector of seed-group indices"
        )
    if not elastic and groups.size != trainer.data_parallel:
        raise FormatError(
            f"rng/group_of_rank has {groups.size} ranks, the trainer "
            f"{trainer.data_parallel}"
        )
    streams: dict[int, dict[str, dict]] = {}
    for key, limbs in saved.items():
        replica, _, mod_path = key.partition("/")
        rank = replica[len("replica"):]
        if not replica.startswith("replica") or not rank.isdigit():
            raise FormatError(f"unexpected checkpoint key 'rng/{key}'")
        streams.setdefault(int(rank), {})[mod_path] = _decode_rng_state(limbs)
    for rank in streams:
        if rank >= trainer.data_parallel and not elastic:
            raise FormatError(
                f"checkpoint holds streams of replica {rank}, the trainer "
                f"has {trainer.data_parallel} data ranks"
            )
    for rank, own in enumerate(trainer.rank_rng_state()):
        if set(streams.get(rank, {})) != set(own):
            raise FormatError(
                f"replica {rank}: checkpoint streams "
                f"{sorted(streams.get(rank, {}))}, the model's {sorted(own)}"
            )
    assignment = SeedAssignment(
        strategy=strategy,
        group_of_rank=groups.copy(),
        seed_of_group=seeds.copy(),
    )
    return assignment, streams


def load_checkpoint(
    path: str | pathlib.Path,
    trainer: DistributedTrainer,
    elastic: bool = False,
) -> int:
    """Restore model, optimizer and per-rank streams from ``path``.

    The trainer must be built with the same architecture; by default the
    world size must match too.  With ``elastic=True`` a *smaller* world
    is accepted (the post-rank-loss recovery path): surviving ranks
    re-index densely, new rank ``r`` adopting saved replica ``r``'s RNG
    streams, and the saved seed assignment is skipped because the
    shrunken trainer derives its own.  Returns the restored global step.

    A file the trainer cannot resume is a :class:`~repro.errors.FormatError`,
    raised before the trainer is touched: every archive member's CRC is
    checked first, then every array against the trainer (keys, shapes,
    dtype kinds, finite floats, counter ranges, seed-group indices, the
    ranks' stream paths).
    """
    try:
        with zipfile.ZipFile(path) as archive:
            corrupt = archive.testzip()
        if corrupt is not None:
            raise FormatError(f"checkpoint {path}: member {corrupt!r} is corrupt")
        with np.load(path, allow_pickle=False) as npz:
            data = {key: npz[key] for key in npz.files}
        state = _read_checkpoint(data, trainer, elastic)
    except FormatError:
        raise
    except (
        KeyError, ValueError, TypeError, EOFError, OSError, zlib.error,
        NotImplementedError, zipfile.BadZipFile,
    ) as err:
        # Not an .npz, a missing key, a value of the wrong shape or type.
        raise FormatError(f"malformed checkpoint {path}: {err!r}") from err

    # In place, once: the one model.
    trainer.model.load_state_dict(state["model"])
    trainer.optimizer.load_state_dict(state["optim"])
    trainer.global_step = state["global_step"]
    trainer.data_step = state["data_step"]
    trainer.epochs_done = state["epochs_done"]
    if state["rng"] is not None:
        assignment, streams = state["rng"]
        trainer.set_rank_rng_state(
            [streams.get(rank, {}) for rank in range(trainer.data_parallel)]
        )
        if not elastic:
            trainer.seed_assignment = assignment
    if state["scaler"] is not None:
        scale, clean_steps, skipped_steps = state["scaler"]
        trainer.scaler._scale = scale
        if clean_steps is not None and hasattr(trainer.scaler, "_clean_steps"):
            trainer.scaler._clean_steps = clean_steps
        trainer.skipped_steps = skipped_steps
    return state["global_step"]
