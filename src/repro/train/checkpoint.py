"""Checkpointing: persist and resume distributed training runs.

The SPMD trainer's replicas bind one set of parameter arrays and share
one optimizer, so a checkpoint stores **one** copy of the model and
optimizer state plus the trainer's step counter, and loading writes that
copy back in place — the same single-writer scheme real data-parallel
trainers use.  What is per rank (module RNG streams) is stored per rank.

Format: a single ``.npz`` with namespaced arrays (``model/<param>``,
``optim/<key>``, ``meta/...``), portable and dependency-free.

Version history
---------------
* **v1** — model + optimizer + counters + loss-scaler state.  Resume was
  *not* bit-exact for models with stateful RNG streams (dropout): the
  restarted run re-seeded the streams from scratch.
* **v2** — adds ``rng/...`` arrays: the sampled-softmax seed assignment
  (strategy + per-group seeds + rank->group map) and every replica's
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
adopts saved replica ``r``'s streams); the saved seed assignment is
skipped because the shrunken trainer derives its own for the new world.
"""

from __future__ import annotations

import pathlib

import numpy as np

from ..core.seeding import SeedAssignment, SeedStrategy
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
    if limbs.shape != (6,):
        raise ValueError(f"expected 6 uint64 limbs, got shape {limbs.shape}")
    vals = [int(v) for v in limbs]
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
        raise ValueError(
            f"checkpoint was written on a (pipe={saved_shape[0]}, "
            f"tensor={saved_shape[1]}) mesh but the trainer has "
            f"(pipe={cfg_shape[0]}, tensor={cfg_shape[1]}): model shards "
            f"cannot be re-cut on restore; rebuild the trainer with a "
            f"matching --mesh (only the data axis may change, and only "
            f"with elastic=True)"
        )
    if not elastic and saved_shape[2] != cfg_shape[2]:
        raise ValueError(
            f"checkpoint has data={saved_shape[2]} replica groups, "
            f"trainer has data={cfg_shape[2]}; pass elastic=True to "
            f"shrink the data axis"
        )


def save_checkpoint(path: str | pathlib.Path, trainer: DistributedTrainer) -> None:
    """Write the trainer's state (rank-0 replica + optimizer) to ``path``.

    Raises if replicas have drifted — checkpointing a diverged run would
    silently pick one of several inconsistent models.
    """
    from .trainer import assert_replicas_synchronized

    assert_replicas_synchronized(trainer.replicas, atol=0.0)
    arrays: dict[str, np.ndarray] = {
        "meta/version": np.array(_FORMAT_VERSION),
        "meta/global_step": np.array(trainer.global_step),
        "meta/data_step": np.array(trainer.data_step),
        "meta/epochs_done": np.array(trainer.epochs_done),
        "meta/world_size": np.array(trainer.config.world_size),
        "meta/mesh": np.array(trainer.config.mesh or ""),
    }
    for name, data in trainer.replicas[0].state_dict().items():
        arrays[f"model/{name}"] = data
    opt_state = trainer.optimizer.state_dict()
    for key, value in opt_state.items():
        if value is None:
            continue  # absent optional hyper-parameters (e.g. clip_norm)
        arrays[f"optim/{key}"] = np.asarray(value)
    if trainer.scaler is not None:
        arrays["scaler/scale"] = np.array(trainer.scaler.scale)
        clean = getattr(trainer.scaler, "_clean_steps", None)
        if clean is not None:
            arrays["scaler/clean_steps"] = np.array(clean)
        arrays["scaler/skipped_steps"] = np.array(trainer.skipped_steps)
    # v2: sampled-softmax seed assignment + per-replica module RNG
    # streams, so a resumed run consumes *identical* randomness.
    assignment = trainer.seed_assignment
    arrays["rng/strategy"] = np.array(assignment.strategy.value)
    arrays["rng/group_of_rank"] = np.asarray(assignment.group_of_rank)
    arrays["rng/seed_of_group"] = np.asarray(assignment.seed_of_group)
    for rank, replica in enumerate(trainer.replicas):
        for mod_path, state in replica.rng_state().items():
            arrays[f"rng/replica{rank}/{mod_path}"] = _encode_rng_state(state)
    np.savez(path, **arrays)


def load_checkpoint(
    path: str | pathlib.Path,
    trainer: DistributedTrainer,
    elastic: bool = False,
) -> int:
    """Restore model, optimizer and per-replica streams from ``path``.

    The trainer must be built with the same architecture; by default the
    world size must match too.  With ``elastic=True`` a *smaller* world
    is accepted (the post-rank-loss recovery path): surviving ranks
    re-index densely, new rank ``r`` adopting saved replica ``r``'s RNG
    streams, and the saved seed assignment is skipped because the
    shrunken trainer derives its own.  Returns the restored global step.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["meta/version"])
        if version not in (1, _FORMAT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version}")
        world = int(data["meta/world_size"])
        if not elastic and world != trainer.config.world_size:
            raise ValueError(
                f"checkpoint was written at world size {world}, trainer "
                f"has {trainer.config.world_size}"
            )
        if elastic and trainer.config.world_size > world:
            raise ValueError(
                f"elastic load cannot grow the world: checkpoint has "
                f"{world} ranks, trainer wants {trainer.config.world_size}"
            )
        saved_mesh = (
            str(data["meta/mesh"]) if "meta/mesh" in data.files else ""
        )
        _check_mesh_compatibility(saved_mesh, world, trainer, elastic)
        model_state = {
            key[len("model/"):]: data[key]
            for key in data.files
            if key.startswith("model/")
        }
        opt_state = {
            key[len("optim/"):]: data[key]
            for key in data.files
            if key.startswith("optim/")
        }
        # Scalars round-trip as 0-d arrays; optimizers expect numbers.
        opt_state = {
            k: (v.item() if v.ndim == 0 else v) for k, v in opt_state.items()
        }
        global_step = int(data["meta/global_step"])
        data_step = int(data["meta/data_step"])
        epochs_done = int(data["meta/epochs_done"])
        rng_streams: dict[int, dict[str, dict]] = {}
        has_rng = version >= 2
        if has_rng:
            for key in data.files:
                if not key.startswith("rng/replica"):
                    continue
                rank_str, _, mod_path = key[len("rng/replica"):].partition("/")
                rng_streams.setdefault(int(rank_str), {})[mod_path] = (
                    _decode_rng_state(data[key])
                )
            strategy = SeedStrategy(str(data["rng/strategy"]))
            group_of_rank = data["rng/group_of_rank"].copy()
            seed_of_group = data["rng/seed_of_group"].copy()

    # In place, once: every replica binds replica 0's arrays.
    trainer.replicas[0].load_state_dict(model_state)
    trainer.optimizer.load_state_dict(opt_state)
    trainer.global_step = global_step
    trainer.data_step = data_step
    trainer.epochs_done = epochs_done
    if has_rng:
        for rank, replica in enumerate(trainer.replicas):
            replica.set_rng_state(rng_streams.get(rank, {}))
        if not elastic:
            trainer.seed_assignment = SeedAssignment(
                strategy=strategy,
                group_of_rank=group_of_rank,
                seed_of_group=seed_of_group,
            )
    with np.load(path, allow_pickle=False) as data:
        if "scaler/scale" in data.files:
            if trainer.scaler is None:
                raise ValueError(
                    "checkpoint carries loss-scaler state but the trainer "
                    "was built without a scaler"
                )
            trainer.scaler._scale = float(data["scaler/scale"])
            if "scaler/clean_steps" in data.files and hasattr(
                trainer.scaler, "_clean_steps"
            ):
                trainer.scaler._clean_steps = int(data["scaler/clean_steps"])
            trainer.skipped_steps = int(data["scaler/skipped_steps"])
    return global_step
