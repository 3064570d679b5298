"""Edge-case and fuzz tests across the stack.

These probe the corners a downstream user will eventually hit: empty and
single-element gradients, single-rank worlds, dimension-1 embeddings,
float32 paths, ranks with wildly unbalanced batches, and randomized
end-to-end invariant checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Communicator
from repro.core import (
    AllGatherExchange,
    GradientSynchronizer,
    UniqueExchange,
    WirePolicy,
    unique_exchange,
)
from repro.nn import Embedding, SparseGrad
from repro.nn.parameter import Parameter


def comm(world):
    return Communicator(world, track_memory=False)


class TestSparseGradEdges:
    def test_empty_gradient(self):
        g = SparseGrad(
            indices=np.array([], dtype=np.int64), values=np.zeros((0, 3))
        )
        assert g.n_tokens == 0
        c = g.coalesce()
        assert c.n_tokens == 0
        np.testing.assert_array_equal(g.to_dense(5), np.zeros((5, 3)))

    def test_single_token(self):
        g = SparseGrad(indices=np.array([2]), values=np.ones((1, 1)))
        assert g.coalesce().n_tokens == 1
        assert g.dim == 1

    def test_dim_one_embedding(self):
        emb = Embedding(5, 1, np.random.default_rng(0))
        out, cache = emb.forward(np.array([[0, 4]]))
        assert out.shape == (1, 2, 1)
        emb.backward(np.ones_like(out), cache)
        assert emb.weight.merged_sparse_grad().dim == 1


class TestExchangeEdges:
    def test_single_rank_world(self):
        g = SparseGrad(indices=np.array([1, 1, 3]), values=np.ones((3, 2)))
        result = unique_exchange(comm(1), [g])
        np.testing.assert_array_equal(result.global_indices, [1, 3])
        np.testing.assert_allclose(
            result.as_sparse_grad().to_dense(5), g.to_dense(5)
        )

    def test_one_rank_empty(self):
        """A rank that saw no tokens (padding-only batch) must not break
        the exchange, and must contribute nothing."""
        full = SparseGrad(indices=np.array([2, 4]), values=np.ones((2, 2)))
        empty = SparseGrad(
            indices=np.array([], dtype=np.int64), values=np.zeros((0, 2))
        )
        result = unique_exchange(comm(2), [full, empty])
        np.testing.assert_allclose(
            result.as_sparse_grad().to_dense(5), full.to_dense(5)
        )

    def test_all_ranks_empty(self):
        empty = SparseGrad(
            indices=np.array([], dtype=np.int64), values=np.zeros((0, 2))
        )
        result = unique_exchange(comm(2), [empty, empty])
        assert result.num_global_unique == 0

    def test_extreme_imbalance(self):
        """One rank with 1 token, another with 500."""
        rng = np.random.default_rng(0)
        small = SparseGrad(indices=np.array([7]), values=np.ones((1, 3)))
        big = SparseGrad(
            indices=rng.integers(0, 50, 500),
            values=rng.standard_normal((500, 3)),
        )
        base = AllGatherExchange().exchange(comm(2), [small, big])
        uniq = UniqueExchange().exchange(comm(2), [small, big])
        np.testing.assert_allclose(
            base[0].to_dense(50), uniq[0].to_dense(50), rtol=1e-10
        )

    def test_float32_pipeline(self):
        rng = np.random.default_rng(1)
        grads = [
            SparseGrad(
                indices=rng.integers(0, 20, 10),
                values=rng.standard_normal((10, 4)).astype(np.float32),
            )
            for _ in range(3)
        ]
        result = unique_exchange(comm(3), grads)
        assert result.reduced_values.dtype == np.float32

    def test_huge_sparse_indices(self):
        """Indices near int64 extremes must survive the index pipeline."""
        big = 2**40
        grads = [
            SparseGrad(
                indices=np.array([big, big + 7], dtype=np.int64),
                values=np.ones((2, 2)),
            )
            for _ in range(2)
        ]
        result = unique_exchange(comm(2), grads)
        np.testing.assert_array_equal(result.global_indices, [big, big + 7])
        np.testing.assert_allclose(result.reduced_values, 2.0)

    def test_fp16_codec_on_empty_values(self):
        empty = SparseGrad(
            indices=np.array([], dtype=np.int64),
            values=np.zeros((0, 2), np.float32),
        )
        result = unique_exchange(
            comm(2), [empty, empty], wire=WirePolicy.from_spec("fp16")
        )
        assert result.num_global_unique == 0


class TestSynchronizerEdges:
    def test_sync_with_some_ranks_empty_sparse(self):
        """Replica batches can miss a parameter's tokens on one rank; the
        synchronizer treats an empty contribution as zeros."""
        params = []
        for rank in range(2):
            p = Parameter(np.zeros((6, 2)))
            if rank == 0:
                p.accumulate_sparse_grad(
                    SparseGrad(np.array([1]), np.ones((1, 2)))
                )
            else:
                p.accumulate_sparse_grad(
                    SparseGrad(
                        np.array([], dtype=np.int64), np.zeros((0, 2))
                    )
                )
            params.append(p)
        sync = GradientSynchronizer(comm(2), strategy=UniqueExchange())
        sync._issue_sparse(
            params, [p.sparse_grads[0] for p in params], "t"
        )()
        merged = params[1].merged_sparse_grad()
        np.testing.assert_allclose(merged.to_dense(6)[1], [0.5, 0.5])


class TestFuzz:
    @given(
        world=st.integers(1, 4),
        vocab=st.integers(1, 15),
        dim=st.integers(1, 5),
        token_counts=st.lists(st.integers(0, 12), min_size=4, max_size=4),
        seed=st.integers(0, 99),
        use_codec=st.booleans(),
    )
    @settings(max_examples=60)
    def test_exchange_equivalence_fuzz(
        self, world, vocab, dim, token_counts, seed, use_codec
    ):
        """Both strategies agree (within codec tolerance) on arbitrary
        shapes, including empty ranks."""
        rng = np.random.default_rng(seed)
        grads = []
        for r in range(world):
            n = token_counts[r]
            grads.append(
                SparseGrad(
                    indices=rng.integers(0, vocab, n),
                    values=rng.standard_normal((n, dim)).astype(np.float32),
                )
            )
        wire = WirePolicy.from_spec("fp16:256") if use_codec else None
        base = AllGatherExchange(wire=wire).exchange(comm(world), grads)
        uniq = UniqueExchange(wire=wire).exchange(comm(world), grads)
        # fp32 accumulation order differs between the two strategies, so
        # exact runs can drift by a few ulps above 1e-6.
        atol = 2e-2 if use_codec else 1e-5
        np.testing.assert_allclose(
            base[0].to_dense(vocab), uniq[0].to_dense(vocab), atol=atol
        )

    @given(
        data=st.data(),
        world=st.integers(2, 4),
    )
    @settings(max_examples=15)
    def test_trainer_invariants_fuzz(self, data, world):
        """Random miniature configs: replicas always end synchronized and
        losses are always finite."""
        from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
        from repro.optim import SGD
        from repro.train import (
            DistributedTrainer,
            TrainConfig,
            WordLanguageModel,
            WordLMConfig,
            assert_replicas_synchronized,
        )

        vocab = data.draw(st.integers(30, 120))
        seqs = data.draw(st.integers(1, 3))
        seq_len = data.draw(st.integers(2, 8))
        use_unique = data.draw(st.booleans())
        corpus = make_corpus(
            ONE_BILLION_WORD.scaled(vocab),
            max(4000, world * seqs * (seq_len * 3 + 2) * 110),
            seed=data.draw(st.integers(0, 20)),
        )
        cfg = TrainConfig(
            world_size=world,
            batch=BatchSpec(seqs, seq_len),
            base_lr=0.2,
            use_unique=use_unique,
        )
        model_cfg = WordLMConfig(
            vocab_size=vocab,
            embedding_dim=4,
            hidden_dim=6,
            projection_dim=4,
            num_samples=min(8, vocab - 1),
        )
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(model_cfg, rng),
            lambda params, lr: SGD(params, lr),
            corpus.train,
            corpus.valid,
            cfg,
        )
        for _ in range(2):
            loss = trainer.train_step()
            assert np.isfinite(loss)
        assert_replicas_synchronized(trainer.replicas, atol=0.0)
