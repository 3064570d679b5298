"""Fault-injection tests for the runtime sanitizer.

Each test injects one of the failure modes the paper's comm layer must
never hit — mismatched per-rank collectives, FP16 compression-scaling
overflow, unbalanced ledger scopes — and asserts the sanitizer reports
it with rank/op context and a usable counterexample.
"""

import numpy as np
import pytest

from repro.analysis import (
    CollectiveMismatchError,
    CompressionOverflowError,
    DroppedHandleError,
    SanitizedFp16Codec,
    Sanitizer,
    SanitizerError,
    sanitize_codec,
)
from repro.cluster import Communicator, LedgerScopeError
from repro.core.compression import FP16_MAX, Fp16Codec, IdentityCodec


def make(world=2, **kw):
    return Sanitizer(Communicator(world, track_memory=False), **kw)


def per_rank(world, shape, dtype=np.float32, fill=1.0):
    return [np.full(shape, fill, dtype=dtype) for _ in range(world)]


class TestCollectiveAgreement:
    def test_clean_allreduce_passes_and_matches_unwrapped(self):
        san = make()
        arrays = [np.arange(4, dtype=np.float32) * (r + 1) for r in range(2)]
        out = san.allreduce([a.copy() for a in arrays], tag="g")
        ref = Communicator(2, track_memory=False).allreduce(
            [a.copy() for a in arrays], tag="g"
        )
        for o, r in zip(out, ref):
            np.testing.assert_array_equal(o, r)
        assert [rec.op for rec in san.op_log] == ["allreduce"]

    def test_mismatched_shapes_reported_with_rank_and_op(self):
        san = make()
        bad = [np.zeros((3,), np.float32), np.zeros((4,), np.float32)]
        with pytest.raises(CollectiveMismatchError) as exc:
            san.allreduce(bad, tag="grads")
        msg = str(exc.value)
        assert "allreduce" in msg
        assert "rank 0: (3,)" in msg and "rank 1: (4,)" in msg

    def test_mismatched_dtypes_reported(self):
        san = make()
        bad = [np.zeros(3, np.float32), np.zeros(3, np.float64)]
        with pytest.raises(CollectiveMismatchError, match="dtype mismatch"):
            san.allreduce(bad)

    def test_wrong_rank_count_reported(self):
        san = make(world=4)
        with pytest.raises(CollectiveMismatchError, match="hang"):
            san.allreduce(per_rank(3, (2,)))

    def test_forbidden_dtype_reported(self):
        san = make(forbid_dtypes=(np.float64,))
        with pytest.raises(CollectiveMismatchError, match="float64"):
            san.allreduce(per_rank(2, (2,), dtype=np.float64))

    def test_nan_payload_reported_with_rank_and_index(self):
        san = make()
        arrays = per_rank(2, (5,))
        arrays[1][3] = np.nan
        with pytest.raises(CollectiveMismatchError) as exc:
            san.allreduce(arrays, tag="t")
        assert "rank 1" in str(exc.value) and "[3]" in str(exc.value)

    def test_allgatherv_ragged_leading_dim_allowed(self):
        san = make()
        ragged = [
            np.zeros((2, 3), np.float32),
            np.zeros((5, 3), np.float32),
        ]
        assert len(san.allgather(ragged)) == 2

    def test_allgather_trailing_dim_mismatch_rejected(self):
        san = make()
        bad = [np.zeros((2, 3), np.float32), np.zeros((2, 4), np.float32)]
        with pytest.raises(CollectiveMismatchError, match="gather axis"):
            san.allgather(bad)

    def test_delegation_exposes_communicator_surface(self):
        san = make()
        assert san.world_size == 2
        assert san.ledger.total_wire_bytes_per_rank == 0
        san.reduce_scatter(per_rank(2, (2,)), tag="sync-point")
        assert san.op_log[-1].op == "reduce_scatter"
        assert san.wait_all() == 0


class TestFunnelCoverage:
    """The checks hook the funnel, so every entry point is covered."""

    @staticmethod
    def mesh_world():
        from repro.cluster import hybrid_mesh

        comm = Communicator(
            4, track_memory=False, mesh=hybrid_mesh("tensor=2,data=2", 4)
        )
        return comm, Sanitizer(comm)

    def test_nan_on_a_tensor_axis_allreduce_is_flagged(self):
        comm, san = self.mesh_world()
        arrays = per_rank(4, (3,))
        arrays[3][1] = np.nan
        with pytest.raises(CollectiveMismatchError) as exc:
            comm.axis("tensor").allreduce(arrays, tag="logits")
        msg = str(exc.value)
        assert "rank 3" in msg and "non-finite" in msg and "logits" in msg
        assert comm.ledger.events == []  # rejected before any accounting

    def test_shapes_are_checked_within_each_subgroup_only(self):
        comm, san = self.mesh_world()
        tensor = comm.axis("tensor")
        assert tensor.groups == ((0, 2), (1, 3))
        shards = [np.ones(2), np.ones(5), np.ones(2), np.ones(5)]
        tensor.allreduce(shards)  # cross-group shapes legitimately differ
        assert [rec.op for rec in san.op_log] == ["allreduce"]
        bad = [np.ones(2), np.ones(5), np.ones(3), np.ones(5)]
        with pytest.raises(CollectiveMismatchError, match="shape mismatch"):
            tensor.allreduce(bad)
        # allgatherv stays ragged-legal inside a subgroup.
        tensor.allgather([np.ones(r + 1) for r in range(4)])

    def test_explicitly_scheduled_steps_are_checked(self):
        san = make(require_scope=True)
        payload = per_rank(2, (4,))
        with pytest.raises(SanitizerError, match="ledger scope"):
            san.issue_scheduled(
                "fused_allreduce", time_s=0.0, wire_bytes_per_rank=8,
                payload=payload,
            )
        payload[1][0] = np.inf
        with san.ledger.scope("sync"):
            with pytest.raises(CollectiveMismatchError, match="rank 1"):
                san.issue_scheduled(
                    "fused_allreduce", time_s=0.0, wire_bytes_per_rank=8,
                    payload=payload,
                )

    def test_fused_ring_payload_is_nan_checked(self):
        from repro.core.wire import icompressed_allreduce

        comm = Communicator(2, track_memory=False)
        Sanitizer(comm)
        arrays = per_rank(2, (8,))
        arrays[0][3] = np.nan
        with pytest.raises(CollectiveMismatchError, match="fused_allreduce"):
            icompressed_allreduce(comm, arrays, tag="dense")


class TestFp16Boundary:
    def test_overflow_through_compression_path_names_rank_and_op(self):
        """An overflowing scale pushed through core/compression.py and a
        collective is caught at the wire with rank/op context."""
        codec = Fp16Codec(scale=1024.0)
        grads = [np.full(4, 10.0, np.float32), np.full(4, 100.0, np.float32)]
        wire = [codec.encode(g) for g in grads]  # rank 1 saturates silently
        san = make()
        with pytest.raises(CompressionOverflowError) as exc:
            san.allreduce(wire, tag="fp16-grads")
        msg = str(exc.value)
        assert "allreduce" in msg and "rank 1" in msg
        assert "lower the scale" in msg

    def test_sanitized_codec_reports_counterexample(self):
        codec = SanitizedFp16Codec(scale=1024.0)
        arr = np.array([0.5, 100.0, 0.25], dtype=np.float32)
        with pytest.raises(CompressionOverflowError) as exc:
            codec.encode(arr)
        msg = str(exc.value)
        assert "[1]=100.0" in msg          # the offending element
        assert "scale=1024.0" in msg       # the parameter that caused it
        assert "Largest safe scale" in msg
        assert f"{FP16_MAX / 100.0:.1f}" in msg

    def test_sanitized_codec_rejects_nonfinite_input(self):
        codec = SanitizedFp16Codec(scale=8.0)
        with pytest.raises(CompressionOverflowError, match="non-finite"):
            codec.encode(np.array([1.0, np.inf]))

    def test_sanitized_codec_roundtrip_matches_stock_codec(self):
        stock, checked = Fp16Codec(512.0), SanitizedFp16Codec(512.0)
        arr = np.linspace(-2, 2, 37, dtype=np.float32)
        np.testing.assert_array_equal(stock.encode(arr), checked.encode(arr))
        wire = checked.encode(arr)
        np.testing.assert_array_equal(
            stock.decode(wire, arr.dtype), checked.decode(wire, arr.dtype)
        )

    def test_sanitize_codec_mapping(self):
        assert sanitize_codec(None) is None
        ident = IdentityCodec()
        assert sanitize_codec(ident) is ident
        wrapped = sanitize_codec(Fp16Codec(256.0))
        assert isinstance(wrapped, SanitizedFp16Codec)
        assert wrapped.scale == 256.0
        assert sanitize_codec(wrapped) is wrapped


class TestLedgerInvariants:
    def test_unbalanced_scope_detected_at_finish(self):
        san = make()
        san.ledger.push_scope("epoch")
        san.allreduce(per_rank(2, (2,)))
        with pytest.raises(LedgerScopeError, match="'epoch' still open"):
            san.finish()

    def test_balanced_run_finishes_with_op_log(self):
        san = make()
        with san.ledger.scope("sync"):
            san.allreduce(per_rank(2, (2,)))
        log = san.finish()
        assert [r.op for r in log] == ["allreduce"]

    def test_require_scope_rejects_unattributed_collective(self):
        san = make(require_scope=True)
        with pytest.raises(SanitizerError, match="REPRO003"):
            san.allreduce(per_rank(2, (2,)))
        with san.ledger.scope("sync"):
            san.allreduce(per_rank(2, (2,)))  # attributed: fine

    def test_require_scope_covers_scheduled_steps(self):
        san = make(require_scope=True)
        with pytest.raises(SanitizerError, match="transfer"):
            san.transfer(8)


class TestAsyncHandles:
    def test_issued_handles_are_wrapped_and_checked(self):
        san = make()
        arrays = [np.zeros((3,), np.float32), np.zeros((4,), np.float32)]
        with pytest.raises(CollectiveMismatchError):
            san.iallreduce(arrays)  # validation fires at issue, not wait
        handle = san.iallreduce(per_rank(2, (3,)), tag="g")
        # The funnel's own pending set is what finish() inspects.
        assert san.pending_work == (handle,)
        # Logged under the base op name, so issue+wait and blocking
        # runs leave the same op_log.
        assert san.op_log[-1].op == "allreduce"
        handle.wait()

    def test_waited_handle_passes_finish(self):
        san = make()
        san.iallreduce(per_rank(2, (2,)), tag="g").wait()
        san.finish()

    def test_dropped_handle_reported_at_finish(self):
        """The async-engine fault the lint rule REPRO007 catches
        statically, caught here at runtime: issue without wait."""
        san = make()
        san.iallreduce(per_rank(2, (2,)), tag="grads:lin")  # never waited
        with pytest.raises(DroppedHandleError) as exc:
            san.finish()
        msg = str(exc.value)
        assert "allreduce" in msg and "grads:lin" in msg
        assert "REPRO007" in msg

    def test_dropped_handle_checked_before_ledger_balance(self):
        san = make()
        san.ledger.push_scope("open")
        san.iallreduce(per_rank(2, (2,)))
        with pytest.raises(DroppedHandleError):
            san.finish()

    def test_all_async_ops_validated(self):
        san = make()
        bad = [np.zeros(3, np.float32), np.zeros(3, np.float64)]
        for issue in (san.iallreduce, san.ireduce_scatter):
            with pytest.raises(CollectiveMismatchError):
                issue(bad)
        trailing_bad = [
            np.zeros((2, 3), np.float32),
            np.zeros((2, 4), np.float32),
        ]
        with pytest.raises(CollectiveMismatchError):
            san.iallgather(trailing_bad)
        for h in san.pending_work:
            h.wait()


class TestTrainerIntegration:
    def test_sanitized_fp16_training_runs_clean(self):
        """A short sanitized FP16 run: every collective validated, all
        scopes balanced, replicas still bit-identical."""
        from repro.core import SeedStrategy
        from repro.data import ONE_BILLION_WORD, BatchSpec, make_corpus
        from repro.optim import SGD
        from repro.train import (
            DistributedTrainer,
            TrainConfig,
            WordLanguageModel,
            WordLMConfig,
            max_replica_divergence,
        )

        corpus = make_corpus(ONE_BILLION_WORD.scaled(40), 3000, seed=0)
        san = make(world=2, require_scope=True)
        cfg = TrainConfig(
            world_size=2,
            batch=BatchSpec(2, 8),
            base_lr=0.1,
            use_unique=True,
            wire_codec="fp16",
            seed_strategy=SeedStrategy.PER_RANK,
        )
        model_cfg = WordLMConfig(
            vocab_size=40, embedding_dim=8, hidden_dim=12,
            projection_dim=8, num_samples=16,
        )
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(model_cfg, rng),
            lambda params, lr: SGD(params, lr),
            corpus.train, corpus.valid, cfg, comm=san,
        )
        for _ in range(3):
            trainer.train_step()
        log = san.finish()
        assert len(log) > 0
        assert max_replica_divergence(trainer.replicas) == 0.0


class TestNoDoubleApplyInvariant:
    """The retry-safety invariant consumed by the recovery loop."""

    @staticmethod
    def replicas(world=2):
        from repro.nn import Linear

        return [
            Linear(3, 3, np.random.default_rng(7)) for _ in range(world)
        ]

    def test_clean_replicas_pass(self):
        from repro.analysis import assert_clean_retry_state

        reps = self.replicas()
        assert_clean_retry_state(reps)
        assert_clean_retry_state(
            reps, Communicator(2, track_memory=False)
        )

    def test_residual_dense_grad_reported_with_rank_and_name(self):
        from repro.analysis import DoubleApplyError, assert_clean_retry_state

        reps = self.replicas()
        reps[1].weight.accumulate_grad(np.ones((3, 3)))
        with pytest.raises(DoubleApplyError, match="rank 1") as exc:
            assert_clean_retry_state(reps)
        assert "weight" in str(exc.value)
        assert "dense gradient" in str(exc.value)

    def test_residual_sparse_grads_reported(self):
        from repro.analysis import DoubleApplyError, assert_clean_retry_state
        from repro.nn.parameter import SparseGrad

        reps = self.replicas()
        reps[0].weight.accumulate_sparse_grad(
            SparseGrad(indices=np.array([0]), values=np.ones((1, 3)))
        )
        with pytest.raises(DoubleApplyError, match="sparse"):
            assert_clean_retry_state(reps)

    def test_in_flight_async_work_reported(self):
        from repro.analysis import DoubleApplyError, assert_clean_retry_state

        comm = Communicator(2, track_memory=False)
        handle = comm.iallreduce(per_rank(2, (4,)), tag="grads")
        with pytest.raises(DoubleApplyError, match="in flight") as exc:
            assert_clean_retry_state(self.replicas(), comm)
        assert "allreduce" in str(exc.value)
        handle.wait()
        assert_clean_retry_state(self.replicas(), comm)

    def test_double_apply_is_a_sanitizer_error(self):
        from repro.analysis import DoubleApplyError

        assert issubclass(DoubleApplyError, SanitizerError)

    def test_zero_grad_restores_cleanliness(self):
        from repro.analysis import assert_clean_retry_state

        reps = self.replicas()
        reps[0].weight.accumulate_grad(np.ones((3, 3)))
        for r in reps:
            r.zero_grad()
        assert_clean_retry_state(reps)


class TestSanitizedWireCodec:
    """Roundtrip enforcement for the lossless wire codecs."""

    def test_clean_codec_passes_through(self):
        from repro.analysis.sanitizer import SanitizedWireCodec
        from repro.core.wire import DeltaBitpackCodec

        wrapped = SanitizedWireCodec(DeltaBitpackCodec())
        vec = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        frame = wrapped.encode(vec)
        np.testing.assert_array_equal(wrapped.decode(frame, np.int64), vec)
        assert wrapped.name == "delta"
        assert wrapped.lossless and wrapped.data_dependent

    def test_corrupted_codec_caught_at_encode(self):
        from repro.analysis.sanitizer import SanitizedWireCodec
        from repro.core.wire import DeltaBitpackCodec

        class BitFlipCodec(DeltaBitpackCodec):
            def encode(self, arr):
                frame = super().encode(arr)
                frame = frame.copy()
                frame[-1] ^= 0x40  # corrupt the packed deltas
                return frame

        wrapped = SanitizedWireCodec(BitFlipCodec())
        with pytest.raises(CollectiveMismatchError, match="bit-exact"):
            wrapped.encode(np.arange(4096, dtype=np.int64))

    def test_signature_change_caught_at_encode(self):
        from repro.analysis.sanitizer import SanitizedWireCodec
        from repro.core.wire import DeltaBitpackCodec

        class TruncatingCodec(DeltaBitpackCodec):
            def encode(self, arr):
                return super().encode(arr[:-1])

        wrapped = SanitizedWireCodec(TruncatingCodec())
        with pytest.raises(CollectiveMismatchError, match="signature"):
            wrapped.encode(np.arange(100, dtype=np.int64))

    def test_lossy_codec_rejected_at_construction(self):
        from repro.analysis.sanitizer import SanitizedWireCodec

        with pytest.raises(ValueError, match="lossless"):
            SanitizedWireCodec(Fp16Codec())

    def test_decode_dtype_check(self):
        from repro.analysis.sanitizer import SanitizedWireCodec
        from repro.core.wire import RunLengthCodec

        wrapped = SanitizedWireCodec(RunLengthCodec())
        frame = wrapped.encode(np.arange(64, dtype=np.int64))
        with pytest.raises((CollectiveMismatchError, ValueError)):
            wrapped.decode(frame, np.int32)

    def test_sanitize_codec_dispatch(self):
        from repro.analysis.sanitizer import SanitizedWireCodec, sanitize_codec
        from repro.core.wire import DeltaBitpackCodec

        assert sanitize_codec(None) is None
        lossless = sanitize_codec(DeltaBitpackCodec())
        assert isinstance(lossless, SanitizedWireCodec)
        # Idempotent: wrapping a wrapped codec is a no-op.
        assert sanitize_codec(lossless) is lossless
        fp16 = sanitize_codec(Fp16Codec(scale=256.0))
        assert isinstance(fp16, SanitizedFp16Codec)
        assert fp16.scale == 256.0
        ident = IdentityCodec()
        assert sanitize_codec(ident) is ident

    def test_sanitized_policy_runs_a_training_exchange(self):
        """End-to-end: a sanitized wire policy on the unique exchange
        behaves identically to the unsanitized one."""
        from repro.core.sparse_exchange import UniqueExchange
        from repro.core.wire import WirePolicy
        from repro.nn.parameter import SparseGrad

        rng = np.random.default_rng(0)
        grads = [
            SparseGrad(
                indices=rng.integers(0, 5000, 512),
                values=rng.standard_normal((512, 4)),
            )
            for _ in range(4)
        ]
        plain = UniqueExchange(
            wire=WirePolicy.from_spec("delta")
        ).exchange(Communicator(4, track_memory=False), grads)
        checked = UniqueExchange(
            wire=WirePolicy.from_spec("delta").sanitized()
        ).exchange(Communicator(4, track_memory=False), grads)
        for p, c in zip(plain, checked):
            np.testing.assert_array_equal(p.indices, c.indices)
            np.testing.assert_array_equal(p.values, c.values)
