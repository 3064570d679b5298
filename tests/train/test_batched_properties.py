"""Property test for the batched execution fast path (``hypothesis``).

200 drawn configurations per model each train a few steps twice: once
with ``batched=True`` and once with ``batched=False``.  The char-LM arm
draws world size, architecture, batch shape, dropout probability (i.e.
per-replica RNG stream consumption), statefulness, accumulation, loss
scale and overlap mode; the word-LM arm adds widths down to 1, sampled
softmax sizes from 1 to V-1, every seed strategy, tied embeddings and
SGD with or without momentum.  The property is
**bit-for-bit identity** of losses, every replica's parameters, the
carried BPTT state and the full optimizer state.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.seeding import SeedStrategy
from repro.data.batching import BatchSpec
from repro.optim.adam import Adam
from repro.optim.sgd import SGD
from repro.train.char_lm import CharLanguageModel
from repro.train.config import CharLMConfig, TrainConfig, WordLMConfig
from repro.train.trainer import DistributedTrainer
from repro.train.word_lm import WordLanguageModel

from ..helpers import assert_same_state

N_CASES = 200

#: What both models draw: world, batch shape, accumulation, steps,
#: statefulness, loss scale, overlap mode and the two seeds.
_COMMON = dict(
    world=st.integers(2, 6),
    seqs=st.integers(1, 3),
    seq_len=st.integers(2, 6),
    accum=st.integers(1, 2),
    steps=st.integers(1, 3),
    stateful=st.booleans(),
    scaled=st.booleans(),
    overlap=st.booleans(),
    init_seed=st.integers(0, 2**31 - 1),
    data_seed=st.integers(0, 2**31 - 1),
)

CHAR_CASE = st.fixed_dictionaries(dict(
    _COMMON,
    vocab=st.integers(12, 79),
    emb=st.integers(2, 9),
    hidden=st.integers(2, 13),
    depth=st.integers(1, 3),
    dropout_x10=st.integers(0, 5),  # 0.0 .. 0.5
))

WORD_CASE = st.fixed_dictionaries(dict(
    _COMMON,
    vocab=st.integers(3, 39),
    emb=st.integers(1, 7),
    hidden=st.integers(1, 9),
    proj=st.integers(1, 7),
    # 1 .. V-1 once taken modulo (vocab - 1) in _build, so that
    # shrinking vocab keeps the case inside the layer's domain.
    samples=st.integers(0, 39),
    strategy=st.sampled_from(list(SeedStrategy)),
    tied=st.booleans(),
    momentum=st.booleans(),
))


def _build(params: dict, batched: bool) -> DistributedTrainer:
    word = "proj" in params
    if word:
        vocab = params["vocab"]
        model_cfg = WordLMConfig(
            vocab_size=vocab,
            # A tied output embedding is the input embedding: one width.
            embedding_dim=params["proj"] if params["tied"] else params["emb"],
            hidden_dim=params["hidden"],
            projection_dim=params["proj"],
            num_samples=1 + params["samples"] % (vocab - 1),
            tie_embeddings=params["tied"],
        )
    else:
        model_cfg = CharLMConfig(
            vocab_size=params["vocab"],
            embedding_dim=params["emb"],
            hidden_dim=params["hidden"],
            depth=params["depth"],
            dropout=params["dropout_x10"] / 10.0,
        )
    cfg = TrainConfig(
        world_size=params["world"],
        batch=BatchSpec(params["seqs"], params["seq_len"]),
        base_lr=0.2 if word else 3e-3,
        seed_strategy=params["strategy"] if word else SeedStrategy.PER_RANK,
        init_seed=params["init_seed"],
        data_seed=params["data_seed"],
        accumulation_steps=params["accum"],
        loss_scale=128.0 if params["scaled"] else None,
        overlap=params["overlap"],
        compute_seconds_per_step=1e-3 if params["overlap"] else None,
        batched=batched,
    )
    data_rng = np.random.default_rng(params["data_seed"])
    train = data_rng.integers(0, params["vocab"], size=2500).astype(np.int64)
    valid = data_rng.integers(0, params["vocab"], size=400).astype(np.int64)

    if word:
        return DistributedTrainer(
            lambda init_rng, rank: WordLanguageModel(
                model_cfg, init_rng, stateful=params["stateful"]
            ),
            lambda p, lr: SGD(
                p, lr, momentum=0.9 if params["momentum"] else 0.0
            ),
            train,
            valid,
            cfg,
        )

    def factory(init_rng, rank):
        return CharLanguageModel(
            model_cfg,
            init_rng,
            dropout_rng=np.random.default_rng((params["init_seed"], rank)),
            stateful=params["stateful"],
        )

    return DistributedTrainer(
        factory, lambda p, lr: Adam(p, lr), train, valid, cfg
    )


def assert_batched_is_bit_exact(params: dict) -> None:
    fast = _build(params, batched=True)
    slow = _build(params, batched=False)
    assert fast.batched_executor is not None
    fast_losses = [fast.train_step() for _ in range(params["steps"])]
    slow_losses = [slow.train_step() for _ in range(params["steps"])]
    assert fast_losses == slow_losses, "losses diverged"
    assert (
        fast.batched_executor._calls == params["steps"] * params["accum"]
    ), "a micro-step fell back to the per-rank loop"
    for ra, rb in zip(fast.replicas, slow.replicas):
        for (name, pa), (_, pb) in zip(
            ra.named_parameters(), rb.named_parameters()
        ):
            assert np.array_equal(pa.data, pb.data), f"param {name}"
        assert (ra._state is None) == (rb._state is None), "state presence"
        if ra._state is not None:
            # (h, c) for the LSTM, one array for the RHN
            assert np.array_equal(ra._state, rb._state), "carried state"
    assert_same_state(
        fast.optimizer.state_dict(), slow.optimizer.state_dict(), "opt state"
    )
    # Dropout generators must have consumed identical draws: the next
    # value from every replica's stream must agree between the paths.
    if params.get("dropout_x10", 0) > 0:
        for ra, rb in zip(fast.replicas, slow.replicas):
            assert (
                ra.dropout._rng.random() == rb.dropout._rng.random()
            ), "dropout RNG streams desynchronized"


@given(params=CHAR_CASE)
@settings(max_examples=N_CASES)
def test_batched_execution_property(params):
    assert_batched_is_bit_exact(params)


@given(params=WORD_CASE)
@settings(max_examples=N_CASES)
def test_batched_execution_property_word_lm(params):
    assert_batched_is_bit_exact(params)
