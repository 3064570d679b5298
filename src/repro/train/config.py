"""Model and training configuration dataclasses.

The paper-scale architectures (Section IV-B) are provided as presets;
experiments at simulator scale use shrunk copies via
``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.seeding import SeedStrategy
from ..data.batching import BatchSpec
from ..errors import ConfigError

__all__ = [
    "WordLMConfig",
    "CharLMConfig",
    "TrainConfig",
    "PAPER_WORD_LM",
    "PAPER_CHAR_LM",
]


@dataclass(frozen=True)
class WordLMConfig:
    """Word LM architecture (the paper's: one 2048-cell LSTM, 512 proj,
    100K vocabulary, 1024 sampled-softmax candidates).

    ``tie_embeddings`` shares the input embedding matrix as the output
    embedding (requires ``embedding_dim == projection_dim``) — the
    weight-tying variant the paper notes implementations may use; it
    halves embedding memory and routes both layers' sparse gradients
    through one exchange.
    """

    vocab_size: int = 100_000
    embedding_dim: int = 512
    hidden_dim: int = 2048
    projection_dim: int = 512
    num_samples: int = 1024
    tie_embeddings: bool = False

    def __post_init__(self) -> None:
        if min(
            self.vocab_size, self.embedding_dim, self.hidden_dim,
            self.projection_dim, self.num_samples,
        ) <= 0:
            raise ConfigError("all dimensions must be positive")
        if self.num_samples >= self.vocab_size:
            raise ConfigError("num_samples must be below vocab_size")
        if self.tie_embeddings and self.embedding_dim != self.projection_dim:
            raise ConfigError(
                "tied embeddings require embedding_dim == projection_dim"
            )


@dataclass(frozen=True)
class CharLMConfig:
    """Char LM architecture (the paper's: depth-10 RHN, 1792 cells,
    full softmax; 98-symbol English / 15,437-symbol Chinese vocab)."""

    vocab_size: int = 98
    embedding_dim: int = 128
    hidden_dim: int = 1792
    depth: int = 10
    dropout: float = 0.1

    def __post_init__(self) -> None:
        if min(self.vocab_size, self.embedding_dim, self.hidden_dim, self.depth) <= 0:
            raise ConfigError("all dimensions must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")


#: Paper-scale presets (Section IV-B).
PAPER_WORD_LM = WordLMConfig()
PAPER_CHAR_LM = CharLMConfig()


@dataclass(frozen=True)
class TrainConfig:
    """Distributed-training run description.

    Attributes
    ----------
    world_size:
        Simulated GPU count G.
    batch:
        Per-rank batch shape (the paper: 32 seqs x 20 for word LM,
        128 x 150 for char LM).
    base_lr:
        Base learning rate; the effective initial rate is
        ``base_lr * ln(nodes)`` per the paper's scaling rule, decayed
        0.9x per epoch (:meth:`repro.optim.EpochDecaySchedule.for_cluster`).
    gpus_per_node:
        Node width for the LR rule (8 in the paper's cluster).
    use_unique, seed_strategy:
        Two of the three techniques: unique exchange on/off and the
        sampled-softmax seed strategy (word LM only).  The third, FP16
        compression on the wire, is ``wire_codec="fp16"``.
    accumulation_steps:
        Gradient-accumulation micro-steps per synchronization: the
        effective global batch becomes ``world * K * accumulation_steps``
        at one exchange per optimizer step — the cheap way to grow batch
        without more (simulated) GPUs.
    loss_scale:
        Loss scaling (Section III-C): a float for a static scale (the
        paper uses 256/512/1024), the string ``"dynamic"`` for the
        adaptive scaler (overflowing steps are skipped and the scale
        backs off), or ``None`` to disable.  On a wire that may send
        FP16 (``fp16``, ``auto``) the wire's compression factor ``F``
        multiplies the already loss-scaled gradients, so a static scale
        must keep ``scale * F`` within the FP16 range; a dynamic one
        backs off whenever the wire overflows.
    shuffle_seed:
        When set, the batcher reshuffles its segment->stream assignment
        every epoch with this seed (identical on all ranks); ``None``
        keeps fully deterministic streams.
    init_seed, data_seed:
        Model-init and sampling seeds (replicas share ``init_seed``).
    overlap:
        Drive gradient sync on the overlapped (issue-all-then-drain)
        schedule: backward compute is recorded layer-by-layer on the
        simulated timeline with each layer's collective issued as its
        gradient is produced.  Numerics are bit-identical to the
        blocking schedule — only the simulated step time changes.
    compute_seconds_per_step:
        Simulated forward+backward compute time per rank per micro-step,
        recorded on the communicator's timeline so overlap can actually
        hide communication.  ``None`` (default) records no compute —
        the pre-timeline behaviour.
    wire_codec:
        Wire-compression spec handed to
        :meth:`repro.core.wire.policy.WirePolicy.from_spec` (``"auto"``,
        ``"fp16"`` / ``"fp16:<scale>"``, ``"delta"``, ``"entropy"``,
        ``"fp16+delta"``, ``"fp16+auto"``, ..., ``"none"``) — the one
        entry point for compression: the value codec covers dense
        allreduces and the sparse exchanges' value traffic, the index
        codec the index gather.  ``None`` (default) builds no policy at
        all — the pre-wire behaviour, bit-and-ledger-identical to the
        seed.
    wire_chunk_bytes:
        Chunk granularity for the pipelined index gather (logical bytes
        per rank); requires ``wire_codec``.
    fused_reduce:
        Run dense gradient allreduces as fused compress-reduce rings
        (:func:`repro.core.wire.fused.icompressed_allreduce`): the
        value codec is applied inside the collective and partials are
        summed in the compressed domain.  Numerics are bit-identical
        to the unfused path; only the simulated schedule and ledger
        change.  Requires a summable value codec (fp16 / identity /
        none).  On a mesh the ring runs per data subgroup, its hop plan
        costed on the largest subgroup and the data-axis link.
    mesh:
        Optional hybrid-parallelism mesh spec over the world, e.g.
        ``"pipe=2,tensor=2,data=G/4"`` (axes default to 1 when omitted;
        the product must equal ``world_size``).  When set, the trainer
        keeps one model replica per **data** coordinate, restricts
        gradient sync to the data axis (sharded over pipe × tensor),
        and charges pipeline activation sends on the pipe axis.
        ``None`` (default) *is* ``"data=G"``: flat data parallelism is
        the trivial ``(1, 1, G)`` mesh, the same code path.  Every other
        switch (``wire_codec``, ``overlap``, ``fused_reduce``,
        sanitizing) composes with any mesh; with
        ``pipe > 1`` the 1F1B schedule has already placed the step's
        compute, so ``overlap`` then only changes the issue order.
    batched:
        The rank execution's stack width, decided once at trainer
        construction.  One program runs every data rank over the one
        model (:class:`~repro.nn.batched.BatchedExecutor`): ``True``
        (default) runs all ``R`` rank rows in one stacked call,
        ``False`` runs the same body ``R`` times over one row each.
        Numerics are bit-identical either way — this knob only trades
        host wall-clock; it stays because the end-to-end benchmark's
        reference configurations pin ``batched=False``.
    """

    world_size: int
    batch: BatchSpec
    base_lr: float
    gpus_per_node: int = 8
    use_unique: bool = True
    seed_strategy: SeedStrategy = SeedStrategy.PER_RANK
    init_seed: int = 1234
    data_seed: int = 99
    accumulation_steps: int = 1
    loss_scale: float | str | None = None
    shuffle_seed: int | None = None
    overlap: bool = False
    compute_seconds_per_step: float | None = None
    wire_codec: str | None = None
    wire_chunk_bytes: int | None = None
    fused_reduce: bool = False
    mesh: str | None = None
    batched: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.batched, bool):
            raise ConfigError(
                f"batched must be True or False, got {self.batched!r}"
            )
        if (
            self.compute_seconds_per_step is not None
            and self.compute_seconds_per_step <= 0
        ):
            raise ConfigError("compute_seconds_per_step must be positive")
        if self.world_size <= 0:
            raise ConfigError("world_size must be positive")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if self.gpus_per_node <= 0:
            raise ConfigError("gpus_per_node must be positive")
        if self.accumulation_steps <= 0:
            raise ConfigError("accumulation_steps must be positive")
        if isinstance(self.loss_scale, str) and self.loss_scale != "dynamic":
            raise ConfigError(
                "loss_scale must be a float, 'dynamic', or None"
            )
        if isinstance(self.loss_scale, (int, float)) and self.loss_scale < 1:
            raise ConfigError("static loss_scale must be >= 1")
        if self.wire_chunk_bytes is not None:
            if self.wire_chunk_bytes <= 0:
                raise ConfigError("wire_chunk_bytes must be positive")
            if self.wire_codec is None:
                raise ConfigError("wire_chunk_bytes requires wire_codec")
        if self.wire_codec is not None:
            # Validate the spec eagerly: a typo should fail at config
            # construction, not three epochs into a run.
            from ..core.compression import FP16_MAX
            from ..core.wire.policy import WirePolicy

            policy = WirePolicy.from_spec(
                self.wire_codec, self.wire_chunk_bytes
            )
            wire_scale = policy.fp16_scale
            # A dynamic scale backs off at run time; a static one cannot.
            if (
                isinstance(self.loss_scale, (int, float))
                and wire_scale is not None
                and self.loss_scale * wire_scale > FP16_MAX
            ):
                raise ConfigError(
                    f"loss_scale={self.loss_scale!r} with wire_codec="
                    f"{self.wire_codec!r}: the FP16 wire scales the "
                    f"already loss-scaled gradients by its own F="
                    f"{wire_scale:g}, past the FP16 range; lower one of "
                    "the two (e.g. 'fp16:1')"
                )
        # Same eager stance for the mesh: parse the spec (and check it
        # against world_size) at construction time.
        self.device_mesh

    @property
    def num_nodes(self) -> int:
        return -(-self.world_size // self.gpus_per_node)

    @property
    def device_mesh(self):
        """The ``(pipe, tensor, data)`` mesh; ``mesh=None`` is ``data=G``."""
        from ..cluster.mesh import hybrid_mesh

        return hybrid_mesh(self.mesh or "data=G", self.world_size)

    @property
    def mesh_shape(self) -> tuple[int, int, int] | None:
        """``(pipe, tensor, data)`` sizes of the mesh, or None if flat."""
        return None if self.mesh is None else self.device_mesh.axis_sizes
