"""Tests for the dynamic SPMD lockstep verifier.

The headline invariants:

* a hand-built mismatched-collective scenario — the silent-deadlock case
  on a real cluster — raises :class:`CollectiveMismatchError` naming the
  diverging rank and both call sites;
* a buffer mutated between ``i*`` issue and ``wait()`` raises
  :class:`InFlightMutationError` (the runtime twin of lint REPRO012);
* a rank evicted by the recovery loop is a *missing participant*, never
  a divergence — chaos-plan rank loss at a collective surfaces as
  :class:`RankFailureError` plus an eviction report, not a hang;
* attaching the verifier is a **bit-exact no-op** on a clean run: same
  weights, same ledger, same timeline as the unverified twin.
"""

import numpy as np
import pytest

from repro.analysis import (
    CollectiveMismatchError,
    InFlightMutationError,
    Sanitizer,
)
from repro.cluster import (
    ChaosCommunicator,
    Communicator,
    FaultEvent,
    FaultKind,
    FaultPlan,
    LockstepVerifier,
    RankFailureError,
)
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    ResilientRunner,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

VOCAB = 60
WORD_MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6,
    num_samples=8,
)
WORD_CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)


def word_factory(cfg, comm):
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WORD_MODEL, rng),
        lambda params, lr: SGD(params, lr),
        WORD_CORPUS.train, WORD_CORPUS.valid, cfg, comm=comm,
    )


def word_config(world):
    return TrainConfig(world_size=world, batch=BatchSpec(2, 6), base_lr=0.2)


def final_weights(trainer):
    return {
        name: param.data.copy()
        for name, param in trainer.replicas[0].named_parameters()
    }


def arrays_for(world, shape=(8,), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for _ in range(world)]


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            LockstepVerifier(0)
        with pytest.raises(ValueError, match="hash_mode"):
            LockstepVerifier(2, hash_mode="crc")
        with pytest.raises(ValueError):
            LockstepVerifier(2, sample_bytes=0)
        with pytest.raises(ValueError):
            LockstepVerifier(2).record(5, "allreduce")
        with pytest.raises(ValueError):
            LockstepVerifier(2).mark_failed(-1)

    def test_attach_installs_observer(self):
        comm = Communicator(3, track_memory=False)
        verifier = LockstepVerifier.attach(comm, hash_mode="full")
        assert comm.verifier is verifier
        assert verifier.world_size == 3
        assert verifier.hash_mode == "full"


class TestHandBuiltDivergence:
    def test_mismatched_ops_name_rank_and_call_sites(self):
        # The classic silent deadlock: rank 2 issues a different
        # collective than everyone else at the same program point.
        verifier = LockstepVerifier(4)
        for rank in range(4):
            verifier.record(rank, "allreduce", tag="grads/dense")
        for rank in range(4):
            op = "allgather" if rank == 2 else "allreduce"
            verifier.record(rank, op, tag="grads/embed")
        with pytest.raises(CollectiveMismatchError) as exc:
            verifier.check("step boundary")
        msg = str(exc.value)
        assert "rank 2 diverges from rank 0" in msg
        assert "collective #1" in msg
        assert "allgather" in msg and "allreduce" in msg
        assert "grads/embed" in msg  # both call sites are named
        assert "deadlock" in msg

    def test_mismatched_tag_is_a_divergence(self):
        verifier = LockstepVerifier(2)
        verifier.record(0, "allreduce", tag="left")
        verifier.record(1, "allreduce", tag="right")
        with pytest.raises(CollectiveMismatchError, match="'left'"):
            verifier.check()

    def test_laggard_rank_reported_as_count_mismatch(self):
        verifier = LockstepVerifier(3)
        for rank in range(3):
            verifier.record(rank, "allreduce", tag="t0")
        verifier.record(0, "allreduce", tag="t1")
        verifier.record(1, "allreduce", tag="t1")
        with pytest.raises(CollectiveMismatchError) as exc:
            verifier.check("wait_all")
        msg = str(exc.value)
        assert "[2]" in msg and "stopped after 1 collective(s)" in msg
        assert "block forever" in msg

    def test_matching_streams_verify_incrementally(self):
        verifier = LockstepVerifier(2)
        for rank in range(2):
            verifier.record(rank, "allreduce", tag="a", shape=(4,),
                            dtype="float64")
        report = verifier.check("mid")
        assert report.verified == 1
        for rank in range(2):
            verifier.record(rank, "allgather", tag="b")
        report = verifier.check("end")
        assert report.verified == 2
        assert report.counts == (2, 2)
        assert "verified 2 collective(s)" in report.describe()


class TestCommunicatorHooks:
    def test_blocking_and_async_collectives_are_fingerprinted(self):
        comm = Communicator(2, track_memory=False)
        verifier = LockstepVerifier.attach(comm)
        comm.allreduce(arrays_for(2))
        handle = comm.iallgather(arrays_for(2, seed=1))
        handle.wait()
        assert verifier.collectives_observed == 2
        report = verifier.check("end")
        # 2 collective fingerprints per rank, all verified.
        assert report.counts == (2, 2)
        assert report.verified == 2

    def test_wait_all_cross_checks_streams(self):
        comm = Communicator(2, track_memory=False)
        verifier = LockstepVerifier.attach(comm)
        comm.allreduce(arrays_for(2))
        # Simulate rank 1 skipping a collective rank 0 issued.
        verifier.record(0, "allreduce", tag="divergent")
        with pytest.raises(CollectiveMismatchError, match="wait_all"):
            comm.wait_all()

    def test_mismatched_signature_raises_at_issue(self):
        # The functional collectives pre-validate allreduce shapes, so
        # exercise the verifier's own backstop directly — it is what a
        # comm implementation without that courtesy would rely on.
        class Handle:
            op, tag = "allreduce", "grads/dense"

        verifier = LockstepVerifier(2)
        rng = np.random.default_rng(0)
        ragged = [rng.standard_normal((4,)), rng.standard_normal((5,))]
        with pytest.raises(CollectiveMismatchError, match="REPRO011"):
            verifier.observe_issue(Handle(), ragged)

    def test_mismatched_dtype_raises_for_any_op(self):
        # Ragged leading shapes are fine for a gather, mixed dtypes never
        # are — the dtype leg of the backstop applies to every op.
        class Handle:
            op, tag = "allgather", "vocab/unique"

        verifier = LockstepVerifier(2)
        arrays = [np.ones(4, dtype=np.float64), np.ones(4, dtype=np.float32)]
        with pytest.raises(CollectiveMismatchError, match="dtype"):
            verifier.observe_issue(Handle(), arrays)


class TestInFlightMutation:
    def test_write_between_issue_and_wait_raises(self):
        comm = Communicator(2, track_memory=False)
        LockstepVerifier.attach(comm, hash_mode="full")
        arrays = arrays_for(2)
        handle = comm.iallreduce(arrays)
        arrays[0][1] = 99.0  # spmd-ok: deliberate race to prove detection
        with pytest.raises(InFlightMutationError) as exc:
            handle.wait()
        msg = str(exc.value)
        assert "rank 0" in msg and "mutated between issue and wait" in msg
        assert "REPRO012" in msg

    def test_clean_wait_passes_and_clears_inflight(self):
        comm = Communicator(2, track_memory=False)
        verifier = LockstepVerifier.attach(comm, hash_mode="full")
        handle = comm.iallreduce(arrays_for(2))
        handle.wait()
        assert verifier._inflight == {}
        handle.wait()  # idempotent: second wait never re-checks

    def test_sample_mode_hashes_head_and_tail(self):
        comm = Communicator(2, track_memory=False)
        LockstepVerifier.attach(comm, hash_mode="sample", sample_bytes=16)
        arrays = arrays_for(2, shape=(512,))
        handle = comm.iallreduce(arrays)
        arrays[1][-1] = 123.0  # spmd-ok: tail write inside the sample window
        with pytest.raises(InFlightMutationError, match="rank 1"):
            handle.wait()

    def test_hash_off_disables_the_race_check(self):
        comm = Communicator(2, track_memory=False)
        LockstepVerifier.attach(comm, hash_mode="off")
        arrays = arrays_for(2)
        handle = comm.iallreduce(arrays)
        arrays[0][0] = 7.0  # spmd-ok: unchecked by design with hashing off
        handle.wait()  # fingerprints only: mutation goes unchecked


class TestEviction:
    def test_dead_rank_is_missing_participant_not_divergence(self):
        verifier = LockstepVerifier(3)
        for rank in range(3):
            verifier.record(rank, "allreduce", tag="t0")
        verifier.mark_failed(2, "rank loss (elastic world shrink)")
        # Survivors continue issuing; the dead rank's silence is fine.
        verifier.record(0, "allreduce", tag="t1")
        verifier.record(1, "allreduce", tag="t1")
        report = verifier.check("post-eviction")
        assert verifier.live_ranks == (0, 1)
        assert report.evicted == ((2, "rank loss (elastic world shrink)"),)
        text = report.describe()
        assert "rank 2: missing participant" in text
        assert "elastic world shrink" in text

    def test_rank_loss_under_chaos_evicts_instead_of_hanging(self):
        # A rank killed by the fault plan must surface as an eviction
        # error at the next collective — never as a silent hang waiting
        # for the dead participant.
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=2, rank=1)]
        )
        comm = ChaosCommunicator(3, plan=plan, track_memory=False)
        verifier = LockstepVerifier.attach(comm)
        comm.allreduce(arrays_for(3))
        comm.allreduce(arrays_for(3, seed=1))
        with pytest.raises(RankFailureError) as exc:
            comm.allreduce(arrays_for(3, seed=2), tag="sync")
        assert exc.value.rank == 1
        verifier.mark_failed(exc.value.rank, str(exc.value))
        report = verifier.check("post-failure")
        assert verifier.collectives_observed == 2
        assert report.evicted[0][0] == 1
        assert "rank 1: missing participant" in report.describe()


class TestDifferentialNoOp:
    def test_verified_run_is_bit_exact_with_unverified(self, tmp_path):
        # The acceptance gate: attaching the verifier to the chaos suite
        # changes nothing — weights, ledger bytes, and simulated time
        # are all identical, only the lockstep bookkeeping differs.
        plan_events = [
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=4, rank=1),
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=11,
                       rank=0, retries=2),
        ]
        results = []
        for verify in (False, True):
            comm = ChaosCommunicator(
                2, plan=FaultPlan(list(plan_events)), track_memory=False
            )
            if verify:
                LockstepVerifier.attach(comm)
            runner = ResilientRunner(
                word_factory, word_config(2), tmp_path / f"c{verify}.npz",
                comm=comm, checkpoint_every=3,
            )
            trainer = runner.run(6)
            results.append(
                (final_weights(trainer),
                 trainer.comm.ledger.total_wire_bytes_per_rank,
                 trainer.comm.timeline.makespan)
            )
        (w0, bytes0, time0), (w1, bytes1, time1) = results
        assert w0.keys() == w1.keys()
        for name in w0:
            np.testing.assert_array_equal(w0[name], w1[name])
        assert bytes0 == bytes1
        assert time0 == time1

    def test_recovery_reattaches_verifier_after_world_shrink(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=20, rank=2)]
        )
        comm = ChaosCommunicator(3, plan=plan, track_memory=False)
        LockstepVerifier.attach(comm, hash_mode="off")
        runner = ResilientRunner(
            word_factory, word_config(3), tmp_path / "ckpt.npz",
            comm=comm, checkpoint_every=3,
        )
        trainer = runner.run(6)
        assert trainer.config.world_size == 2
        assert len(runner.verifiers) == 2
        old, new = runner.verifiers
        assert old.collectives_observed > 0
        assert (2, "rank loss (elastic world shrink)") in (
            tuple(sorted(old._evicted.items()))
        )
        assert new is not None and new is trainer.comm.verifier
        assert new.hash_mode == "off"  # settings carry across generations
        assert new.world_size == 2
        new.check("end of run")


class TestSanitizerIntegration:
    def test_lockstep_flag_attaches_and_checks_at_finish(self):
        comm = Sanitizer(Communicator(2, track_memory=False), lockstep=True)
        assert comm.verifier is comm.lockstep
        comm.allreduce(arrays_for(2))
        comm.finish()
        assert comm.lockstep.collectives_observed == 1

    def test_existing_verifier_is_adopted(self):
        inner = Communicator(2, track_memory=False)
        verifier = LockstepVerifier(2, hash_mode="full")
        comm = Sanitizer(inner, lockstep=verifier)
        assert inner.verifier is verifier
        assert comm.lockstep is verifier
