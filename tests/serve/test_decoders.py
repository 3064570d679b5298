"""Decoder kernel tests: batch invariance, sampling, sharded lookup."""

import numpy as np
import pytest

from repro.cluster.communicator import Communicator
from repro.core.unique import global_unique
from repro.serve import sample_token, sharded_embedding_lookup
from repro.serve.decoders import fold_histories, stack_states

from .helpers import make_char_decoder, make_word_decoder


def random_rows(decoder, n, rng):
    ids = rng.integers(0, decoder.vocab_size, size=n)
    return decoder.embedding_weight[ids]


def blocking_per_rank_lookup(comm, weight, ids_per_rank, tag):
    """The sharded lookup in its first form — kept as the accounting reference.

    Blocking allgathers with per-rank result copies, ``np.array_split``
    shards, and one ``searchsorted`` per rank.
    """
    with comm.ledger.scope("serve-embed"):
        all_ids = comm.allgather(
            ids_per_rank,
            tag=f"serve-ids:{tag}",
            payload_bytes=max(ids.nbytes for ids in ids_per_rank),
        )[0]
        global_ids = global_unique(all_ids)
        shards = np.array_split(global_ids, comm.world_size)
        contributions = [weight[shard] for shard in shards]
        rows = comm.allgather(
            contributions,
            tag=f"serve-rows:{tag}",
            payload_bytes=max(c.nbytes for c in contributions),
        )[0]
    return [rows[np.searchsorted(global_ids, ids)] for ids in ids_per_rank]


class TestStackUnstack:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        rows = [
            (rng.standard_normal(4), rng.standard_normal(4)) for _ in range(3)
        ]
        stacked = stack_states(rows)
        assert stacked[0].shape == (3, 4)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(stacked[0][i], row[0])
            np.testing.assert_array_equal(stacked[1][i], row[1])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            stack_states([])


class TestSampleToken:
    def test_greedy_argmax_no_rng(self):
        logits = np.array([0.1, 3.0, -1.0])
        assert sample_token(logits, None, temperature=0.0) == 1

    def test_sampled_needs_rng(self):
        with pytest.raises(ValueError):
            sample_token(np.zeros(3), None, temperature=1.0)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            sample_token(np.zeros(3), np.random.default_rng(0), temperature=-1.0)

    def test_batched_logits_rejected(self):
        with pytest.raises(ValueError):
            sample_token(np.zeros((2, 3)), None)

    def test_deterministic_in_rng_state(self):
        logits = np.random.default_rng(1).standard_normal(20)
        a = sample_token(logits, np.random.default_rng(42), temperature=0.8)
        b = sample_token(logits, np.random.default_rng(42), temperature=0.8)
        assert a == b

    def test_sampled_tokens_follow_distribution(self):
        # A huge logit should win almost always at low temperature.
        logits = np.zeros(10)
        logits[3] = 50.0
        rng = np.random.default_rng(2)
        draws = [sample_token(logits, rng, temperature=1.0) for _ in range(50)]
        assert all(d == 3 for d in draws)


@pytest.mark.parametrize(
    "make_decoder", [make_word_decoder, make_char_decoder],
    ids=["word-lstm", "char-rhn"],
)
class TestBatchInvariance:
    """Row r of step() is a bitwise-pure function of row r of the inputs."""

    def test_rows_identical_across_batch_compositions(self, make_decoder):
        decoder = make_decoder()
        rng = np.random.default_rng(3)
        n = 6
        x = random_rows(decoder, n, rng)
        rows = [decoder.init_state() for _ in range(n)]
        # fold one warmup step so states are non-trivial
        _, warm = decoder.step(x, stack_states(rows))
        warm_rows = [tuple(part[i] for part in warm) for i in range(n)]

        x2 = random_rows(decoder, n, rng)
        ref_logits, ref_states = decoder.step(x2, stack_states(warm_rows))

        # every contiguous sub-batch, plus a permuted composition
        compositions = [list(range(i, j)) for i in range(n) for j in range(i + 1, n + 1)]
        compositions.append([4, 0, 2])
        for members in compositions:
            logits, states = decoder.step(
                x2[members], stack_states([warm_rows[m] for m in members])
            )
            for pos, member in enumerate(members):
                np.testing.assert_array_equal(
                    logits[pos], ref_logits[member], strict=True
                )
                for part, ref_part in zip(states, ref_states):
                    np.testing.assert_array_equal(
                        part[pos], ref_part[member], strict=True
                    )

    def test_multi_step_trajectory_schedule_independent(self, make_decoder):
        # Decoding a request alone vs inside changing batches must give
        # bitwise-identical states after several steps.
        decoder = make_decoder()
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, decoder.vocab_size, size=5)

        solo = stack_states([decoder.init_state()])
        for t in tokens:
            x = decoder.embedding_weight[int(t)][np.newaxis, :]
            _, solo = decoder.step(x, solo)

        # same request in slot 1 of a 3-wide batch with random companions
        state = decoder.init_state()
        for t in tokens:
            companions = [decoder.init_state() for _ in range(2)]
            batch = stack_states([companions[0], state, companions[1]])
            x = np.vstack(
                [
                    random_rows(decoder, 1, rng),
                    decoder.embedding_weight[int(t)][np.newaxis, :],
                    random_rows(decoder, 1, rng),
                ]
            )
            _, new = decoder.step(x, batch)
            state = tuple(part[1] for part in new)

        for part, ref in zip(state, solo):
            np.testing.assert_array_equal(part, ref[0], strict=True)


@pytest.mark.parametrize(
    "make_decoder", [make_word_decoder, make_char_decoder],
    ids=["word-lstm", "char-rhn"],
)
class TestAdvanceAndLockStepReplay:
    """Prefill's kernels change no bit against one-token ``step`` replay."""

    def test_advance_is_steps_state(self, make_decoder):
        decoder = make_decoder()
        rng = np.random.default_rng(6)
        states = stack_states([decoder.init_state() for _ in range(4)])
        for _ in range(3):
            x = random_rows(decoder, 4, rng)
            _, stepped = decoder.step(x, states)
            advanced = decoder.advance(x, states)
            for part, ref in zip(advanced, stepped):
                np.testing.assert_array_equal(part, ref, strict=True)
            states = stepped

    def test_fold_histories_equals_per_request_replay(self, make_decoder):
        decoder = make_decoder()
        rng = np.random.default_rng(7)
        for _ in range(20):
            # length 0 is a one-token prompt: nothing to fold
            lengths = rng.integers(0, 9, size=int(rng.integers(1, 8)))
            histories = [
                rng.integers(0, decoder.vocab_size, size=n).tolist()
                for n in lengths
            ]
            folded = fold_histories(decoder, histories)
            for i, history in enumerate(histories):
                # naive_serve's prefill: one request, one token, step()
                solo = stack_states([decoder.init_state()])
                for token in history:
                    x = decoder.embedding_weight[token][np.newaxis, :]
                    _, solo = decoder.step(x, solo)
                for part, ref in zip(folded, solo):
                    np.testing.assert_array_equal(part[i], ref[0], strict=True)

    def test_suffix_fold_from_a_folded_start_equals_full_fold(self, make_decoder):
        # A readmitted request folds its emitted suffix on top of its
        # prompt-table row; that must be the fold of the whole history.
        decoder = make_decoder()
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            prefixes = [
                rng.integers(0, decoder.vocab_size, size=k).tolist()
                for k in rng.integers(0, 8, size=n)
            ]
            suffixes = [
                rng.integers(0, decoder.vocab_size, size=k).tolist()
                for k in rng.integers(0, 6, size=n)
            ]
            table = fold_histories(decoder, prefixes)
            before = [part.copy() for part in table]
            got = fold_histories(decoder, suffixes, table)
            want = fold_histories(
                decoder, [p + s for p, s in zip(prefixes, suffixes)]
            )
            for part, ref, kept, orig in zip(got, want, table, before):
                np.testing.assert_array_equal(part, ref, strict=True)
                np.testing.assert_array_equal(kept, orig, strict=True)

    def test_no_histories_fold_to_zero_rows(self, make_decoder):
        decoder = make_decoder()
        empty = tuple(part[:0] for part in stack_states([decoder.init_state()]))
        for start in (None, empty):
            folded = fold_histories(decoder, [], start)
            for part, row in zip(folded, decoder.init_state(), strict=True):
                assert part.shape == (0,) + row.shape
                assert part.dtype == row.dtype


class TestShardedEmbeddingLookup:
    def test_bitwise_equal_to_direct_gather(self):
        decoder = make_word_decoder()
        rng = np.random.default_rng(5)
        comm = Communicator(3)
        ids_per_rank = [
            rng.integers(0, decoder.vocab_size, size=k).astype(np.int64)
            for k in (4, 2, 5)
        ]
        rows = sharded_embedding_lookup(
            comm, decoder.embedding_weight, ids_per_rank
        )
        for ids, out in zip(ids_per_rank, rows):
            np.testing.assert_array_equal(
                out, decoder.embedding_weight[ids], strict=True
            )

    def test_empty_rank_vector(self):
        decoder = make_word_decoder()
        comm = Communicator(2)
        ids_per_rank = [
            np.array([3, 3, 7], dtype=np.int64),
            np.array([], dtype=np.int64),
        ]
        rows = sharded_embedding_lookup(
            comm, decoder.embedding_weight, ids_per_rank
        )
        assert rows[1].shape == (0, decoder.embedding_weight.shape[1])
        np.testing.assert_array_equal(
            rows[0], decoder.embedding_weight[[3, 3, 7]], strict=True
        )

    def test_wrong_rank_count_rejected(self):
        decoder = make_word_decoder()
        comm = Communicator(2)
        with pytest.raises(ValueError):
            sharded_embedding_lookup(
                comm, decoder.embedding_weight, [np.array([1], dtype=np.int64)]
            )

    @pytest.mark.parametrize("world", [1, 2, 3, 5])
    def test_accounting_equals_the_blocking_per_rank_form(self, world):
        # Shared results, arithmetic shard bounds and one searchsorted
        # are host glue: ledger, timeline and device peaks must not move.
        decoder = make_word_decoder()
        weight = decoder.embedding_weight
        rng = np.random.default_rng(world)
        fast = Communicator(world, track_memory=True)
        reference = Communicator(world, track_memory=True)
        for step in range(6):
            ids_per_rank = [
                rng.integers(0, decoder.vocab_size, size=k).astype(np.int64)
                for k in rng.integers(0, 4, size=world)
            ]
            got = sharded_embedding_lookup(
                fast, weight, ids_per_rank, tag=f"step{step}"
            )
            want = blocking_per_rank_lookup(
                reference, weight, ids_per_rank, tag=f"step{step}"
            )
            for out, ref in zip(got, want, strict=True):
                np.testing.assert_array_equal(out, ref, strict=True)
        assert fast.ledger.events == reference.ledger.events
        assert (
            fast.ledger.total_wire_bytes_per_rank
            == reference.ledger.total_wire_bytes_per_rank
        )
        assert fast.timeline.events == reference.timeline.events
        assert [d.peak_bytes for d in fast.devices] == [
            d.peak_bytes for d in reference.devices
        ]

    def test_collectives_land_on_ledger(self):
        decoder = make_word_decoder()
        comm = Communicator(2)
        before = comm.ledger.total_wire_bytes_per_rank
        sharded_embedding_lookup(
            comm,
            decoder.embedding_weight,
            [np.array([1, 2], dtype=np.int64), np.array([2], dtype=np.int64)],
        )
        assert comm.ledger.total_wire_bytes_per_rank > before
