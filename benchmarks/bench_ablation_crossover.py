"""Ablation: where does the uniqueness technique stop winning?

Sweeps the duplication factor (tokens per type, ``G*K / Ug``) by varying
the vocabulary against a fixed batch, measuring actual wire bytes for
both exchange strategies.  The analytic boundary — uniqueness wins iff
the batch repeats each type more than ~2x on average — is checked
against the measurements, and the natural-language operating points
(Figure 1's ~100x, the char LM's vocabulary saturation) are marked.

A third regime sits at the far left: when the whole ``V x (D + 1)``
table (gradient plus presence column) costs no more on the wire than
the unique exchange's index gather, the gradient synchronizer sends the
table instead.  Its column comes from the synchronizer's own rule,
:func:`~repro.core.unique.dense_table_wins`, and where the rule picks
the table the folded exchange is run and its bytes and result checked.
One extra row sits at the ``char_batched`` workload's shape.
"""

import numpy as np

from repro.cluster import (
    Communicator,
    allgather_wire_bytes,
    allreduce_wire_bytes,
)
from repro.core import (
    AllGatherExchange,
    UniqueExchange,
    crossover_duplication_factor,
    unique_wins_comm,
)
from repro.core.unique import dense_table_wins, iunique_exchange
from repro.nn import SparseGrad
from repro.report import format_table

WORLD, TOKENS, DIM = 8, 512, 64
#: ``char_batched``: the Table-V mini char LM (float64) at G = 512 with
#: 16 tokens per rank.
CHAR_SHAPE = (150, 512, 16, 8, np.float64)


def measure(rng, vocab, world, tokens, dim, dtype):
    grads = []
    for _ in range(world):
        if vocab >= world * tokens:
            # Effectively duplication-free: all-distinct ids.
            base = len(grads) * tokens
            idx = np.arange(base, base + tokens)
        else:
            idx = rng.integers(0, vocab, tokens)
        grads.append(
            SparseGrad(
                indices=idx,
                values=rng.standard_normal((tokens, dim)).astype(dtype),
            )
        )
    c_base = Communicator(world, track_memory=False)
    c_uniq = Communicator(world, track_memory=False)
    AllGatherExchange().exchange(c_base, grads)
    result = UniqueExchange().exchange(c_uniq, grads)
    ug = int(result[0].indices.size)
    dup = world * tokens / ug
    base_b = c_base.ledger.total_wire_bytes_per_rank
    uniq_b = c_uniq.ledger.total_wire_bytes_per_rank
    predicted = unique_wins_comm(world, tokens, dim, ug, idx_bytes=8)
    itemsize = np.dtype(dtype).itemsize
    table_b = allreduce_wire_bytes(world, vocab * (dim + 1) * itemsize)
    gather_b = allgather_wire_bytes(world, 8 * tokens)
    table = dense_table_wins(world, vocab, dim, itemsize, [8 * tokens] * world)
    if table:
        # The synchronizer's fold: one allreduce of the table, the
        # unique exchange's result bit for bit.
        c_fold = Communicator(world, track_memory=False)
        pending = iunique_exchange(c_fold, grads, num_rows=vocab)
        assert pending.gather.table_wins
        pending.gather.folded = True
        folded = pending.wait()[0]
        assert c_fold.ledger.total_wire_bytes_per_rank == table_b
        assert np.array_equal(folded.global_indices, result[0].indices)
        assert folded.reduced_values.tobytes() == result[0].values.tobytes()
    return [
        f"{world}/{tokens}/{dim}/{np.dtype(dtype).name}",
        vocab,
        ug,
        f"{dup:.1f}x",
        f"{base_b / uniq_b:.2f}x",
        "unique" if uniq_b < base_b else "baseline",
        "unique" if predicted else "baseline",
        f"{table_b:,} vs {gather_b:,}",
        "table" if table else "exchange",
    ]


def sweep():
    rng = np.random.default_rng(0)
    rows = [
        measure(rng, vocab, WORLD, TOKENS, DIM, np.float32)
        for vocab in (16, 64, 256, 1024, 4096, 16_384, 10**6)
    ]
    rows.append(measure(rng, *CHAR_SHAPE))
    return rows


def test_ablation_crossover(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    boundary = crossover_duplication_factor(WORLD, TOKENS, DIM, idx_bytes=8)
    table = format_table(
        ["G/K/D/dtype", "vocab", "Ug", "duplication G*K/Ug",
         "base/unique bytes", "measured winner", "predicted winner",
         "table vs gather B/rank", "sync sends"],
        rows,
        title=f"Unique-exchange crossover sweep (G={WORLD}, K={TOKENS}, "
        f"D={DIM}, plus char_batched's shape); analytic boundary: "
        f"duplication > {boundary:.2f}x",
    )
    footer = (
        "\nNatural-language batches sit far left (Figure 1: ~100x "
        "duplication); only pathological all-distinct batches cross the "
        "boundary — uniqueness is a Zipf optimization, not a free one.  "
        "Further left still, a table no dearer than the index gather "
        "(dense_table_wins) goes instead of the exchange."
    )
    report("ablation_crossover", table + footer)

    # Prediction matches measurement at every sweep point.
    for row in rows:
        assert row[5] == row[6], row
    # Both regimes are actually exercised.
    winners = {row[5] for row in rows}
    assert winners == {"unique", "baseline"}
    # The third regime: the table at the smallest vocabulary and at
    # char_batched's shape, the exchange everywhere else.
    assert [row[8] for row in rows] == ["table"] + ["exchange"] * 6 + ["table"]
