"""The first composition table, kept as named cells of the lattice.

Its 13 all-pairs cells (mesh x codec x overlap x fused x observer x
model, two micro-steps each) run through
:func:`tests.conformance.cells.conform` against the one written-out
reference.  What stays its own is the trivial mesh's cost: a ``data=G``
cell must also equal flat in ledger and makespan.
"""

import itertools

import pytest

from ..conformance.cells import HYBRID, conform

MESHES = {"flat": None, "trivial": "data=G", "hybrid": HYBRID}
#: mesh-codec-schedule-fusion-observer-model, one cell a line.
CELLS = """
flat-raw-blocking-unfused-plain-word
flat-delta-overlap-fused-sanitize-char
trivial-fp16-blocking-unfused-sanitize-char
trivial-fp16+entropy-overlap-fused-plain-word
hybrid-raw-blocking-fused-plain-char
hybrid-delta-overlap-unfused-sanitize-word
flat-fp16-overlap-fused-plain-word
flat-fp16+entropy-blocking-unfused-sanitize-char
trivial-raw-overlap-unfused-sanitize-word
trivial-delta-blocking-unfused-plain-word
hybrid-fp16-blocking-unfused-plain-word
hybrid-fp16+entropy-blocking-unfused-plain-word
hybrid-fp16+entropy-overlap-fused-sanitize-word
""".split()
VALUES = [
    set(MESHES), {"raw", "delta", "fp16", "fp16+entropy"},
    {"blocking", "overlap"}, {"unfused", "fused"}, {"plain", "sanitize"},
    {"word", "char"},
]


@pytest.mark.parametrize("cell", CELLS)
def test_cell_matches_flat_reference(cell):
    mesh, codec, schedule, fusion, observer, model = cell.split("-")
    switches = dict(
        mesh=MESHES[mesh], wire_codec=None if codec == "raw" else codec,
        overlap=schedule == "overlap", fused_reduce=fusion == "fused",
        observer=observer, model=model, accumulation_steps=2,
        optimizer="adam" if model == "char" else "sgd",
    )
    trainer = conform(**switches)
    if mesh == "trivial":
        flat = conform(**dict(switches, mesh=None))
        assert flat.comm.ledger.events == trainer.comm.ledger.events
        assert flat.comm.timeline.makespan == trainer.comm.timeline.makespan


@pytest.mark.parametrize("mesh", MESHES.values(), ids=list(MESHES))
@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
def test_batched_word_lm_cell(mesh, overlap):
    """The word LM stacks on a flat world and on every mesh, one stacked
    pass per micro-step (``conform`` counts them)."""
    conform(mesh=mesh, overlap=overlap, accumulation_steps=2)


def test_table_covers_every_pair_of_switch_values():
    rows = [cell.split("-") for cell in CELLS]
    for i, j in itertools.combinations(range(len(VALUES)), 2):
        seen = {(row[i], row[j]) for row in rows}
        assert seen == set(itertools.product(VALUES[i], VALUES[j])), (i, j)
