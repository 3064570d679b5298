"""The conformance lattice: every switch changes cost, never bits.

The uniqueness exchange is exact and only the FP16 wire may move a
loss, so every switch must leave a run where the one reference
(:mod:`.reference`) puts it, within the cell's tolerance class
(:mod:`.cells`).  This file draws a constraint-aware **all-pairs** cover
of :data:`~.cells.FACTORS`, plus the everything-at-once cell.  A new
switch joins by adding a factor value — never a new differential — and
the field guard below fails until every ``TrainConfig`` field is a
factor or a named exclusion.
"""

import dataclasses
import itertools

import pytest

from repro.core.seeding import SeedStrategy
from repro.errors import ConfigError
from repro.train import TrainConfig

from .cells import FACTORS, HYBRID, conform, in_ledger_class, lossy
from .reference import BATCH

#: Value pairs ``TrainConfig`` refuses, as ``(factor, value, factor,
#: value)``; the generator builds no cell holding one.
FORBIDDEN = {
    # A chunk size shapes the codec's index gather: it needs a codec.
    ("wire_codec", None, "wire_chunk_bytes", 64),
} | {
    # The FP16 wire's own F = 512 would carry a static loss scale past
    # FP16 (a dynamic one backs off instead).
    ("wire_codec", spec, "loss_scale", 256.0)
    for spec in ("auto", "fp16+entropy", "fp16+auto")
}

#: ``TrainConfig`` fields that are not factors, and why.
_SEED = "a seed: every cell draws the same streams"
EXCLUDED = {
    "world_size": "G=8: the smallest world a 2x2 model mesh still splits",
    "batch": "one per-rank batch shape; shapes are the layers' concern",
    "base_lr": "follows the optimizer factor",
    "gpus_per_node": "only the LR rule's node count; the reference matches it",
    "init_seed": _SEED,
    "data_seed": _SEED,
    "shuffle_seed": _SEED,
    "compute_seconds_per_step": "cost only: 1 ms per cell, for overlap to hide",
}


def _allowed(a, va, b, vb) -> bool:
    return (a, va, b, vb) not in FORBIDDEN and (b, vb, a, va) not in FORBIDDEN


def required_pairs(factors: dict) -> list:
    """Every allowed pair of values of two factors, in a fixed order."""
    return [
        (a, va, b, vb)
        for a, b in itertools.combinations(factors, 2)
        for va in factors[a]
        for vb in factors[b]
        if _allowed(a, va, b, vb)
    ]


def all_pairs(factors: dict) -> list[dict]:
    """A deterministic greedy all-pairs cover that never builds a
    forbidden pair.

    Each cell starts from the first pair still uncovered; every other
    factor then takes the allowed value covering most uncovered pairs
    with the values already chosen (the first such value on a tie).
    """
    required = required_pairs(factors)
    uncovered = set(required)
    cells = []
    while uncovered:
        a, va, b, vb = next(p for p in required if p in uncovered)
        cell = {a: va, b: vb}
        for name in factors:
            if name in cell:
                continue
            options = [
                v for v in factors[name]
                if all(_allowed(name, v, k, w) for k, w in cell.items())
            ]
            cell[name] = max(options, key=lambda v: sum(
                (k, w, name, v) in uncovered or (name, v, k, w) in uncovered
                for k, w in cell.items()
            ))
        cell = {name: cell[name] for name in factors}
        cells.append(cell)
        uncovered.difference_update(
            (a, cell[a], b, cell[b]) for a, b in itertools.combinations(cell, 2)
        )
    return cells


EVERYTHING = dict(
    model="tied", optimizer="momentum", batched=True, mesh=HYBRID,
    wire_codec="fp16+entropy", wire_chunk_bytes=64, overlap=True,
    fused_reduce=True, use_unique=True, seed_strategy=SeedStrategy.ZIPF_FREQ,
    accumulation_steps=2, loss_scale=None, observer="sanitize",
    faults="transient",
)
CELLS = all_pairs(FACTORS)
if EVERYTHING not in CELLS:
    CELLS.append(EVERYTHING)


_WORDS = {
    "batched": {True: "stacked", False: "per-rank"},
    "mesh": {None: "flat", "data=G": "trivial", HYBRID: "hybrid"},
    "overlap": {False: "blocking", True: "overlap"},
    "fused_reduce": {False: "unfused", True: "fused"},
    "use_unique": {True: "unique", False: "allgather"},
}
_NUMBERS = ("wire_chunk_bytes", "accumulation_steps", "loss_scale")


def cell_id(cell: dict) -> str:
    return "-".join(
        _WORDS[k][v] if k in _WORDS
        else f"{k}={v}" if k in _NUMBERS
        else str(getattr(v, "value", v))
        for k, v in cell.items()
    )


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_conforms_to_the_reference(cell):
    conform(**cell)


def test_every_pair_of_factor_values_is_in_some_cell():
    seen = {
        (a, c[a], b, c[b])
        for c in CELLS
        for a, b in itertools.combinations(FACTORS, 2)
    }
    assert [p for p in required_pairs(FACTORS) if p not in seen] == []
    assert all(_allowed(*p) for p in seen)
    assert EVERYTHING in CELLS
    # Each tolerance class has members, and the faulted cells are many.
    assert any(in_ledger_class(c) for c in CELLS)
    assert any(lossy(c) for c in CELLS)
    assert sum(c["faults"] == "transient" for c in CELLS) >= 3


@pytest.mark.parametrize("pair", sorted(FORBIDDEN, key=repr), ids=repr)
def test_forbidden_pairs_are_what_the_config_refuses(pair):
    a, va, b, vb = pair
    with pytest.raises(ConfigError):
        TrainConfig(world_size=8, batch=BATCH, base_lr=0.1, **{a: va, b: vb})


def test_every_train_config_field_is_a_factor_or_excluded():
    """A new ``TrainConfig`` switch cannot land without joining the lattice."""
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    assert not set(FACTORS) & set(EXCLUDED)
    assert names == (names & set(FACTORS)) | set(EXCLUDED)
