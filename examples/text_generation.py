#!/usr/bin/env python
"""End-to-end on real text: tokenize -> train distributed -> generate.

Uses the library's real-text front end (``repro.data.text``) on an
embedded public-domain excerpt (Lewis Carroll, *Alice's Adventures in
Wonderland*, 1865), trains a character LM across 4 simulated GPUs with
the paper's techniques, and samples continuations — the noisy-channel
"prior" role the paper's introduction motivates, demonstrated.

Run:  python examples/text_generation.py
"""

import numpy as np

from repro.data import BatchSpec, CharTokenizer, encode_corpus
from repro.optim import Adam
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    bits_per_char,
    generate,
)

ALICE = """
Alice was beginning to get very tired of sitting by her sister on the
bank, and of having nothing to do: once or twice she had peeped into
the book her sister was reading, but it had no pictures or
conversations in it, and what is the use of a book, thought Alice,
without pictures or conversations? So she was considering in her own
mind, as well as she could, for the hot day made her feel very sleepy
and stupid, whether the pleasure of making a daisy-chain would be worth
the trouble of getting up and picking the daisies, when suddenly a
White Rabbit with pink eyes ran close by her. There was nothing so very
remarkable in that; nor did Alice think it so very much out of the way
to hear the Rabbit say to itself, oh dear! Oh dear! I shall be late!
When she thought it over afterwards, it occurred to her that she ought
to have wondered at this, but at the time it all seemed quite natural;
but when the Rabbit actually took a watch out of its waistcoat-pocket,
and looked at it, and then hurried on, Alice started to her feet, for
it flashed across her mind that she had never before seen a rabbit with
either a waistcoat-pocket, or a watch to take out of it, and burning
with curiosity, she ran across the field after it, and fortunately was
just in time to see it pop down a large rabbit-hole under the hedge.
"""

WORLD = 4
STEPS = 300


def main() -> None:
    corpus = encode_corpus(ALICE * 8, tokenizer=CharTokenizer())
    print(f"Corpus: {corpus.tokens.size} characters, "
          f"{corpus.vocab_size} distinct symbols\n")

    split = int(corpus.tokens.size * 0.95)
    train, valid = corpus.tokens[:split], corpus.tokens[split:]

    model_cfg = CharLMConfig(
        vocab_size=corpus.vocab_size, embedding_dim=16, hidden_dim=48,
        depth=2, dropout=0.0,
    )
    cfg = TrainConfig(
        world_size=WORLD, batch=BatchSpec(4, 20), base_lr=4e-3,
        wire_codec="fp16",
    )
    trainer = DistributedTrainer(
        lambda rng, rank: CharLanguageModel(
            model_cfg, rng, dropout_rng=np.random.default_rng(rank),
            stateful=True,
        ),
        lambda params, lr: Adam(params, lr),
        train, valid, cfg,
    )

    print(f"Training on {WORLD} simulated GPUs "
          f"(unique exchange + FP16 compression, stateful BPTT)...")
    for step in range(STEPS):
        trainer.train_step()
        if (step + 1) % 100 == 0:
            bpc = bits_per_char(trainer.evaluate())
            print(f"  step {step + 1:4d}: validation {bpc:.2f} bits/char")

    prompt_text = "alice "
    prompt = np.array([corpus.stoi(c) for c in prompt_text], dtype=np.int64)
    print(f"\nSampling from the model (prompt: {prompt_text!r}):\n")
    for temperature in (0.5, 1.0):
        sample = generate(
            trainer.model, prompt, 120,
            np.random.default_rng(0), temperature=temperature,
        )
        text = corpus.decode(sample, sep="")
        print(f"  T={temperature}: {prompt_text}{text!s}\n")


if __name__ == "__main__":
    main()
