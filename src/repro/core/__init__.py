"""The paper's contribution: uniqueness, seeding, and compression.

Uniqueness (III-A) turns the Θ(G·K·D) embedding-gradient ALLGATHER into
Θ(G·K + Ug·D); seeding (III-B) restores sampled-softmax overlap so the
output embedding enjoys the same reduction; compression (III-C) halves
wire volume with FP16 + compression-scaling.  The :mod:`repro.core.wire`
package generalizes III-C into a pluggable codec stack, adding lossless
delta-bitpack/run-length frame codecs for the Θ(G·K) index gather.
"""

from .complexity import (
    PAPER_ALPHA,
    PAPER_HEAPS_COEFF,
    WorkedExample,
    baseline_allgather_comm_bytes,
    baseline_allgather_memory_bytes,
    breakeven_unique_rows,
    crossover_duplication_factor,
    expected_global_unique,
    unique_comm_bytes,
    unique_memory_bytes,
    unique_wins_comm,
    worked_example_256_gpus,
)
from .compression import (
    CompressionOverflowError,
    Fp16Codec,
    IdentityCodec,
    WireCodec,
)
from .embedding_sync import GradientSynchronizer, concat_token_grads
from .seeding import (
    SeedAssignment,
    SeedStrategy,
    assign_seeds,
    expected_unique_sampled,
    num_seed_groups,
    seed_group_sizes,
)
from .sparse_exchange import AllGatherExchange, ExchangeStrategy, UniqueExchange
from .unique import UniqueExchangeResult, local_unique_reduce, unique_exchange
from .wire import (
    AdaptiveCodecSelector,
    DeltaBitpackCodec,
    LosslessIntCodec,
    WirePolicy,
    available_codecs,
    decode_frames,
    iencoded_allgather,
    make_codec,
)

__all__ = [
    "breakeven_unique_rows",
    "crossover_duplication_factor",
    "unique_wins_comm",
    "PAPER_ALPHA",
    "PAPER_HEAPS_COEFF",
    "expected_global_unique",
    "baseline_allgather_memory_bytes",
    "baseline_allgather_comm_bytes",
    "unique_memory_bytes",
    "unique_comm_bytes",
    "WorkedExample",
    "worked_example_256_gpus",
    "WireCodec",
    "IdentityCodec",
    "CompressionOverflowError",
    "Fp16Codec",
    "GradientSynchronizer",
    "concat_token_grads",
    "SeedStrategy",
    "SeedAssignment",
    "assign_seeds",
    "num_seed_groups",
    "seed_group_sizes",
    "expected_unique_sampled",
    "ExchangeStrategy",
    "AllGatherExchange",
    "UniqueExchange",
    "UniqueExchangeResult",
    "unique_exchange",
    "local_unique_reduce",
    "AdaptiveCodecSelector",
    "DeltaBitpackCodec",
    "LosslessIntCodec",
    "WirePolicy",
    "available_codecs",
    "decode_frames",
    "iencoded_allgather",
    "make_codec",
]
