"""Module base class: parameter registration and traversal.

A deliberately small contract (this is a training *system*, not a full
autograd framework): modules own :class:`~repro.nn.parameter.Parameter`
objects and submodules, expose ``forward(...)`` returning
``(output, cache)`` and ``backward(grad, cache)`` accumulating into
parameter gradients and returning the gradient w.r.t. the input.  The
explicit cache keeps the SPMD trainer free to interleave many rank
replicas without hidden state leaking between them.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator

from .parameter import Parameter

__all__ = ["Module"]


class Module:
    """Base class for layers and models."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # -- registration --------------------------------------------------

    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        if name in self._parameters or name in self._modules:
            raise ValueError(f"duplicate registration: {name!r}")
        if not param.name:
            param.name = name
        self._parameters[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        if name in self._parameters or name in self._modules:
            raise ValueError(f"duplicate registration: {name!r}")
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value: object) -> None:
        # Auto-register parameters/modules assigned as attributes,
        # mirroring the convenience of torch.nn.Module.
        if isinstance(value, Parameter) and not name.startswith("_"):
            self.register_parameter(name, value)
        elif isinstance(value, Module) and not name.startswith("_"):
            self.register_module(name, value)
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """All parameters of this module and submodules, depth-first.

        Shared (tied) parameters are yielded **once** — at their first
        position — so optimizers never double-update a tied embedding.
        """
        for _, p in self.named_parameters():
            yield p

    def named_parameters(
        self, prefix: str = "", _seen: set[int] | None = None
    ) -> Iterator[tuple[str, Parameter]]:
        """Qualified (name, parameter) pairs, tied parameters deduplicated."""
        seen = _seen if _seen is not None else set()
        for name, p in self._parameters.items():
            if id(p) in seen:
                continue
            seen.add(id(p))
            yield (f"{prefix}{name}", p)
        for mod_name, sub in self._modules.items():
            yield from sub.named_parameters(
                prefix=f"{prefix}{mod_name}.", _seen=seen
            )

    def modules(self) -> Iterator["Module"]:
        yield self
        for sub in self._modules.values():
            yield from sub.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Qualified (path, module) pairs, depth-first; the root is ``""``.

        Paths join registration names with ``.`` (``"dropout"``,
        ``"lstm.cell"``), mirroring :meth:`named_parameters` — they key
        the per-module RNG streams in :meth:`rng_state`.
        """
        yield prefix, self
        for name, sub in self._modules.items():
            child = f"{prefix}.{name}" if prefix else name
            yield from sub.named_modules(prefix=child)

    # -- state ------------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> dict:
        """Copy of every parameter's data, keyed by qualified name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        """Restore parameters from :meth:`state_dict` output.

        Names and shapes must match exactly — a checkpoint from a
        different architecture is an error, not a silent partial load.
        Values are written **into** the existing arrays (cast to their
        dtype), so everything that binds them — data-parallel replicas
        sharing one parameter set, a decoder's alias — sees the load.
        """
        params = dict(self.named_parameters())
        if set(state) != set(params):
            missing = set(params) - set(state)
            extra = set(state) - set(params)
            raise ValueError(
                f"state dict mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        for name, data in state.items():
            if data.shape != params[name].data.shape:
                raise ValueError(
                    f"{name}: checkpoint shape {data.shape} != "
                    f"parameter shape {params[name].data.shape}"
                )
        for name, data in state.items():
            params[name].data[...] = data

    def rng_state(self) -> dict:
        """Bit-generator states of every stateful RNG stream in the tree.

        A module owns a stateful stream when it stores a
        ``numpy.random.Generator`` in a ``_rng`` attribute (the
        convention :class:`~repro.nn.dropout.Dropout` follows).  Keys
        are :meth:`named_modules` paths; values are the bit generators'
        ``.state`` dicts.  Together with :meth:`state_dict` this makes a
        replica's forward pass fully reproducible — the checkpoint-v2
        format persists both.
        """
        states = {}
        for path, mod in self.named_modules():
            rng = getattr(mod, "_rng", None)
            if rng is not None and hasattr(rng, "bit_generator"):
                states[path] = copy.deepcopy(rng.bit_generator.state)
        return states

    def set_rng_state(self, states: dict) -> None:
        """Restore streams captured by :meth:`rng_state`.

        Unknown paths or paths without a stateful stream raise — a
        checkpoint from a different architecture is an error, not a
        silent partial restore.  Modules with streams *absent* from
        ``states`` are left untouched (the backward-compat path for
        version-1 checkpoints, which carried no RNG state).
        """
        mods = dict(self.named_modules())
        for path, state in states.items():
            if path not in mods:
                raise ValueError(f"no module at path {path!r}")
            rng = getattr(mods[path], "_rng", None)
            if rng is None or not hasattr(rng, "bit_generator"):
                raise ValueError(f"module at {path!r} has no RNG stream")
            rng.bit_generator.state = copy.deepcopy(state)

    def parameter_bytes(self) -> int:
        return sum(p.nbytes for p in self.parameters())
