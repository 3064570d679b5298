"""Fault-injection tests for the runtime sanitizer.

Each test injects one of the failure modes the paper's comm layer must
never hit — mismatched per-rank collectives, FP16 compression-scaling
overflow, unbalanced ledger scopes, dropped handles, buffers written
while in flight — and asserts the sanitizer reports it with rank/op
context and a usable counterexample.
"""

import numpy as np
import pytest

from repro.analysis import (
    CollectiveMismatchError,
    DroppedHandleError,
    InFlightMutationError,
    Sanitizer,
    SanitizerError,
)
from repro.cluster import (
    ChaosCommunicator,
    Communicator,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FusedRun,
    LedgerScopeError,
)
from repro.core.compression import Fp16Codec, IdentityCodec

from ..conformance.cells import conform


def make(world=2):
    """A communicator and the sanitizer hooked onto its funnel."""
    comm = Communicator(world, track_memory=False)
    return comm, Sanitizer(comm)


def per_rank(world, shape, dtype=np.float32, fill=1.0):
    return [np.full(shape, fill, dtype=dtype) for _ in range(world)]


class TestCollectiveAgreement:
    def test_clean_allreduce_passes_and_matches_unwrapped(self):
        comm, san = make()
        arrays = [np.arange(4, dtype=np.float32) * (r + 1) for r in range(2)]
        with comm.timeline.scope("sync"):
            out = comm.allreduce([a.copy() for a in arrays], tag="g")
        ref = Communicator(2, track_memory=False).allreduce(
            [a.copy() for a in arrays], tag="g"
        )
        for o, r in zip(out, ref):
            np.testing.assert_array_equal(o, r)
        assert san.collectives_checked == 1

    def test_mismatched_shapes_reported_with_rank_and_op(self):
        comm, _ = make()
        bad = [np.zeros((3,), np.float32), np.zeros((4,), np.float32)]
        with pytest.raises(CollectiveMismatchError) as exc:
            comm.allreduce(bad, tag="grads")
        msg = str(exc.value)
        assert "allreduce" in msg
        assert "rank 0: (3,)" in msg and "rank 1: (4,)" in msg

    def test_mismatched_dtypes_reported(self):
        comm, _ = make()
        bad = [np.zeros(3, np.float32), np.zeros(3, np.float64)]
        with pytest.raises(CollectiveMismatchError, match="dtype mismatch"):
            comm.allreduce(bad)

    def test_wrong_rank_count_reported(self):
        comm, _ = make(world=4)
        with pytest.raises(CollectiveMismatchError, match="hang"):
            comm.allreduce(per_rank(3, (2,)))

    def test_nan_payload_reported_with_rank_and_index(self):
        comm, _ = make()
        arrays = per_rank(2, (5,))
        arrays[1][3] = np.nan
        with pytest.raises(CollectiveMismatchError) as exc:
            comm.allreduce(arrays, tag="t")
        assert "rank 1" in str(exc.value) and "[3]" in str(exc.value)

    def test_allgatherv_ragged_leading_dim_allowed(self):
        comm, _ = make()
        ragged = [
            np.zeros((2, 3), np.float32),
            np.zeros((5, 3), np.float32),
        ]
        with comm.timeline.scope("gather"):
            assert len(comm.allgather(ragged)) == 2

    def test_allgather_trailing_dim_mismatch_rejected(self):
        comm, _ = make()
        bad = [np.zeros((2, 3), np.float32), np.zeros((2, 4), np.float32)]
        with pytest.raises(CollectiveMismatchError, match="gather axis"):
            comm.allgather(bad)

    def test_attach_moves_the_hook_between_communicators(self):
        comm, san = make()
        with comm.timeline.scope("sync"):
            comm.reduce_scatter(per_rank(2, (2,)), tag="sync-point")
        other = Communicator(2, track_memory=False)
        san.attach(other)
        assert san not in comm.hooks and other.hooks == [san]
        assert san.comm is other
        with pytest.raises(SanitizerError, match="ledger scope"):
            other.allreduce(per_rank(2, (2,)))
        comm.allreduce(per_rank(2, (2,)))  # no longer checked
        assert san.collectives_checked == 1


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
        with comm.timeline.scope("tensor"):
            # cross-group shapes legitimately differ
            tensor.allreduce(shards)
            assert san.collectives_checked == 1
            bad = [np.ones(2), np.ones(5), np.ones(3), np.ones(5)]
            with pytest.raises(
                CollectiveMismatchError, match="shape mismatch"
            ):
                tensor.allreduce(bad)
            # allgatherv stays ragged-legal inside a subgroup.
            tensor.allgather([np.ones(r + 1) for r in range(4)])

    def test_explicitly_scheduled_steps_are_checked(self):
        comm, _ = make()
        payload = per_rank(2, (4,))
        with pytest.raises(SanitizerError, match="ledger scope"):
            comm.issue_scheduled(
                "fused_allreduce", time_s=0.0, wire_bytes_per_rank=8,
                payload=payload,
            )
        payload[1][0] = np.inf
        with comm.timeline.scope("sync"):
            with pytest.raises(CollectiveMismatchError, match="rank 1"):
                comm.issue_scheduled(
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
    def test_fp16_overflow_is_left_to_the_post_sync_check(self):
        """An FP16 payload's inf is the wire's overflow: the funnel passes
        it on, and the trainer's post-sync check decides the step (see
        ``tests/train/test_loss_scaling_integration.py``)."""
        codec = Fp16Codec(scale=1024.0)
        grads = [np.full(4, 10.0, np.float32), np.full(4, 100.0, np.float32)]
        wire = [codec.encode(g) for g in grads]  # rank 1 encodes as inf
        assert np.isinf(wire[1]).all()
        comm, san = make()
        with comm.timeline.scope("sync"):
            out = comm.allreduce(wire, tag="fp16-grads")
        assert np.isinf(out[0]).all()
        assert san.collectives_checked == 1


class TestLedgerInvariants:
    def test_unbalanced_scope_detected_at_finish(self):
        comm, san = make()
        comm.timeline.push_scope("epoch")
        comm.allreduce(per_rank(2, (2,)))
        with pytest.raises(LedgerScopeError, match="'epoch' still open"):
            san.finish()

    def test_balanced_run_finishes_and_counts(self):
        comm, san = make()
        with comm.timeline.scope("sync"):
            comm.allreduce(per_rank(2, (2,)))
        san.finish()
        assert san.collectives_checked == 1

    def test_scope_check_rejects_unattributed_collective(self):
        comm, san = make()
        with pytest.raises(SanitizerError, match="wrap the call in `with"):
            comm.allreduce(per_rank(2, (2,)))
        assert comm.ledger.events == []  # rejected before any accounting
        with comm.timeline.scope("sync"):
            comm.allreduce(per_rank(2, (2,)))  # attributed: fine
        assert san.collectives_checked == 1

    def test_scope_check_covers_scheduled_steps(self):
        comm, _ = make()
        with pytest.raises(SanitizerError, match="transfer"):
            comm.transfer(8)


class TestAsyncHandles:
    def test_issued_handles_are_wrapped_and_checked(self):
        comm, san = make()
        arrays = [np.zeros((3,), np.float32), np.zeros((4,), np.float32)]
        with pytest.raises(CollectiveMismatchError):
            comm.iallreduce(arrays)  # validation fires at issue, not wait
        with comm.timeline.scope("sync"):
            handle = comm.iallreduce(per_rank(2, (3,)), tag="g")
        # The funnel's own pending set is what finish() inspects.
        assert comm.pending_work == (handle,)
        assert san.collectives_checked == 1
        handle.wait()

    def test_waited_handle_passes_finish(self):
        comm, san = make()
        with comm.timeline.scope("sync"):
            comm.iallreduce(per_rank(2, (2,)), tag="g").wait()
        san.finish()

    def test_dropped_handle_reported_at_finish(self):
        """The async-engine fault: issue without wait."""
        comm, san = make()
        with comm.timeline.scope("sync"):
            comm.iallreduce(per_rank(2, (2,)), tag="grads:lin")  # never waited
        with pytest.raises(DroppedHandleError) as exc:
            san.finish()
        msg = str(exc.value)
        assert "allreduce" in msg and "grads:lin" in msg
        assert "never wait()ed" in msg

    def test_dropped_handle_checked_before_ledger_balance(self):
        comm, san = make()
        comm.timeline.push_scope("open")
        comm.iallreduce(per_rank(2, (2,)))
        with pytest.raises(DroppedHandleError):
            san.finish()

    def test_all_async_ops_validated(self):
        comm, _ = make()
        bad = [np.zeros(3, np.float32), np.zeros(3, np.float64)]
        for issue in (comm.iallreduce, comm.ireduce_scatter):
            with pytest.raises(CollectiveMismatchError):
                issue(bad)
        trailing_bad = [
            np.zeros((2, 3), np.float32),
            np.zeros((2, 4), np.float32),
        ]
        with pytest.raises(CollectiveMismatchError):
            comm.iallgather(trailing_bad)
        assert comm.pending_work == ()


class TestInFlightMutation:
    """A buffer written between an ``i*`` issue and its wait."""

    @staticmethod
    def issue(shape=(8,)):
        comm, san = make()
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(shape) for _ in range(2)]
        with comm.timeline.scope("sync"):
            handle = comm.iallreduce(arrays, tag="grads")
        return san, arrays, handle

    def test_write_between_issue_and_wait_raises(self):
        _, arrays, handle = self.issue()
        arrays[0][1] = 99.0
        with pytest.raises(InFlightMutationError) as exc:
            handle.wait()
        msg = str(exc.value)
        assert "rank 0" in msg and "mutated between issue and wait" in msg
        assert "wait() before writing" in msg

    def test_clean_wait_passes_and_clears_inflight(self):
        san, _, handle = self.issue()
        handle.wait()
        assert san._inflight == {}
        handle.wait()  # idempotent: second wait never re-checks
        san.finish()

    def test_tail_write_is_caught(self):
        # Well past two sample windows: only the head and tail are hashed.
        san, arrays, handle = self.issue(shape=(4096,))
        arrays[1][-1] = 123.0
        with pytest.raises(InFlightMutationError, match="rank 1"):
            handle.wait()

    def test_fused_run_member_write_is_caught(self):
        comm, _ = make()
        runs = [FusedRun(a=np.ones(4), b=np.ones(3)) for _ in range(2)]
        with comm.timeline.scope("sync"):
            handle = comm.iallreduce(runs, tag="a+b:dense")
        runs[1]["b"][2] += 1.0
        with pytest.raises(InFlightMutationError, match="rank 1"):
            handle.wait()


class TestTrainerIntegration:
    def test_sanitized_fp16_training_runs_clean(self):
        """A short sanitized FP16 run: every collective validated, all
        scopes balanced, replicas still bit-identical (a conformance
        cell, which checks all three)."""
        conform(observer="sanitize", wire_codec="fp16", world_size=2)


class TestResilientComposition:
    """A sanitizer rides the recovery loop across the world shrink."""

    @staticmethod
    def run(tmp_path, sanitize):
        from repro.data import ONE_BILLION_WORD, BatchSpec, make_corpus
        from repro.optim import SGD
        from repro.train import (
            DistributedTrainer,
            ResilientRunner,
            TrainConfig,
            WordLanguageModel,
            WordLMConfig,
        )

        model_cfg = WordLMConfig(
            vocab_size=60, embedding_dim=6, hidden_dim=8, projection_dim=6,
            num_samples=8,
        )
        corpus = make_corpus(ONE_BILLION_WORD.scaled(60), 6000, seed=0)

        def factory(cfg, comm):
            return DistributedTrainer(
                lambda rng, rank: WordLanguageModel(model_cfg, rng),
                lambda params, lr: SGD(params, lr),
                corpus.train, corpus.valid, cfg, comm=comm,
            )

        # train --resilient's demo plan at world 3, 6 steps: two
        # transient link faults, then the last rank is lost.
        plan = FaultPlan([
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2, rank=1),
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=7,
                       rank=0, retries=2),
            FaultEvent(FaultKind.RANK_LOSS, collective_index=18, rank=2),
        ])
        comm = ChaosCommunicator(3, plan=plan, track_memory=False)
        san = Sanitizer(comm) if sanitize else None
        runner = ResilientRunner(
            factory,
            TrainConfig(world_size=3, batch=BatchSpec(2, 6), base_lr=0.2),
            tmp_path / f"ckpt-{sanitize}.npz",
            comm=comm, checkpoint_every=2,
        )
        return runner, runner.run(6), san

    def test_sanitized_run_survives_rank_loss_bit_identically(self, tmp_path):
        runner, trainer, san = self.run(tmp_path, sanitize=True)
        assert trainer.config.world_size == 2
        assert any(e.kind == "rank-loss" for e in runner.events)
        assert trainer.comm.hooks == [san] and san.comm is trainer.comm
        san.finish()
        assert san.collectives_checked > 0

        _, twin, _ = self.run(tmp_path, sanitize=False)
        want = dict(twin.replicas[0].named_parameters())
        for name, p in trainer.replicas[0].named_parameters():
            np.testing.assert_array_equal(p.data, want[name].data, err_msg=name)
        assert (
            trainer.comm.ledger.total_wire_bytes_per_rank
            == twin.comm.ledger.total_wire_bytes_per_rank
        )
        assert trainer.comm.timeline.makespan == twin.comm.timeline.makespan


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
        from repro.core.wire import EntropyCodec

        wrapped = SanitizedWireCodec(EntropyCodec())
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
        # Value codecs pass through: an FP16 overflow is the trainer's call.
        fp16 = Fp16Codec(scale=256.0)
        assert sanitize_codec(fp16) is fp16
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
