"""Seeded randomized property test for the batched execution fast path.

200 random configurations per model each train a few steps twice: once
with ``batched=True`` and once with ``batched=False``.  The char-LM arm
draws world size, architecture, batch shape, dropout probability (i.e.
per-replica RNG stream consumption), statefulness, accumulation, loss
scale and overlap mode; the word-LM arm adds widths down to 1, sampled
softmax sizes from 1 to V-1, every seed strategy, tied embeddings and
SGD with or without momentum.  The property is
**bit-for-bit identity** of losses, every replica's parameters, the
carried BPTT state and the full optimizer state.  Driven by
:mod:`tests.proptest` (shrinks integer parameters on failure and names
the reproducing ``seed=/case=`` pair).
"""

import numpy as np

from repro.core.seeding import SeedStrategy
from repro.data.batching import BatchSpec
from repro.optim.adam import Adam
from repro.optim.sgd import SGD
from repro.train.char_lm import CharLanguageModel
from repro.train.config import CharLMConfig, TrainConfig, WordLMConfig
from repro.train.trainer import DistributedTrainer
from repro.train.word_lm import WordLanguageModel

from ..helpers import assert_same_state
from ..proptest import run_property

N_CASES = 200


def gen_case(rng: np.random.Generator) -> dict:
    overlap = bool(rng.integers(0, 2))
    return {
        "world": int(rng.integers(2, 7)),
        "vocab": int(rng.integers(12, 80)),
        "emb": int(rng.integers(2, 10)),
        "hidden": int(rng.integers(2, 14)),
        "depth": int(rng.integers(1, 4)),
        "seqs": int(rng.integers(1, 4)),
        "seq_len": int(rng.integers(2, 7)),
        "accum": int(rng.integers(1, 3)),
        "steps": int(rng.integers(1, 4)),
        "dropout_x10": int(rng.integers(0, 6)),  # 0.0 .. 0.5
        "stateful": bool(rng.integers(0, 2)),
        "scaled": bool(rng.integers(0, 2)),
        "overlap": overlap,
        "init_seed": int(rng.integers(0, 2**31)),
        "data_seed": int(rng.integers(0, 2**31)),
    }


STRATEGIES = list(SeedStrategy)


def gen_word_case(rng: np.random.Generator) -> dict:
    case = gen_case(rng)
    del case["depth"], case["dropout_x10"]
    case.update(
        vocab=int(rng.integers(3, 40)),
        emb=int(rng.integers(1, 8)),
        hidden=int(rng.integers(1, 10)),
        proj=int(rng.integers(1, 8)),
        # 1 .. V-1 once taken modulo (vocab - 1) in _build, so that
        # shrinking vocab keeps the case inside the layer's domain.
        samples=int(rng.integers(0, 40)),
        strategy=int(rng.integers(0, len(STRATEGIES))),
        tied=bool(rng.integers(0, 2)),
        momentum=bool(rng.integers(0, 2)),
    )
    return case


def _build(params: dict, batched: bool) -> DistributedTrainer:
    word = "proj" in params
    if word:
        vocab = max(3, params["vocab"])
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
        seed_strategy=STRATEGIES[params["strategy"]] if word else SeedStrategy.PER_RANK,
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


def prop_batched_is_bit_exact(params: dict, rng: np.random.Generator) -> None:
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


def test_batched_execution_property():
    assert (
        run_property(prop_batched_is_bit_exact, gen_case, n_cases=N_CASES)
        == N_CASES
    )


def test_batched_execution_property_word_lm():
    assert (
        run_property(prop_batched_is_bit_exact, gen_word_case, n_cases=N_CASES)
        == N_CASES
    )
