"""Tests for the supervised recovery loop and the differential chaos layer.

The headline invariants, per the resilience design:

* **Transient-only differential**: replaying a fault plan containing only
  transient link faults through :class:`ResilientRunner` must leave the
  final weights **bit-identical** to a fault-free run — a retried step
  consumes exactly the randomness and data the never-faulted step would
  have.
* **Elastic differential**: a plan with a permanent rank loss completes
  end-to-end (world shrinks, checkpoint resume, LR rescale) with
  bit-identical replicas and a perplexity in the same regime as the
  fault-free run.
"""

import numpy as np
import pytest

from repro.cluster import (
    ChaosCommunicator,
    Communicator,
    FaultEvent,
    FaultKind,
    FaultPlan,
    RankFailureError,
)
from repro.data import BatchSpec, ONE_BILLION_WORD, TIEBA, make_corpus
from repro.optim import SGD, Adam
from repro.perf import optimal_checkpoint_steps
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    ResilientRunner,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    assert_replicas_synchronized,
    perplexity,
)

VOCAB = 60
WORD_MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6,
    num_samples=8,
)
WORD_CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)

CHAR_MODEL = CharLMConfig(
    vocab_size=40, embedding_dim=6, hidden_dim=8, depth=2, dropout=0.2
)
CHAR_CORPUS = make_corpus(TIEBA.scaled(40), 30_000, seed=1)

#: The chaos suite replays these fixed seeds (``make test-chaos``).
CHAOS_SEEDS = (0, 1, 2, 3, 4)


def word_factory(cfg, comm):
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WORD_MODEL, rng),
        lambda params, lr: SGD(params, lr),
        WORD_CORPUS.train, WORD_CORPUS.valid, cfg, comm=comm,
    )


def char_factory(cfg, comm):
    return DistributedTrainer(
        lambda rng, rank: CharLanguageModel(
            CHAR_MODEL, rng,
            dropout_rng=np.random.default_rng(rank),
            stateful=True,
        ),
        lambda params, lr: Adam(params, lr),
        CHAR_CORPUS.train, CHAR_CORPUS.valid, cfg, comm=comm,
    )


def word_config(world=3):
    return TrainConfig(world_size=world, batch=BatchSpec(2, 6), base_lr=0.2)


def runner_for(plan, tmp_path, world=3, factory=word_factory, cfg=None, **kw):
    cfg = cfg if cfg is not None else word_config(world)
    comm = ChaosCommunicator(world, plan=plan, track_memory=False)
    kw.setdefault("checkpoint_every", 3)
    return ResilientRunner(
        factory, cfg, tmp_path / "ckpt.npz", comm=comm, **kw
    )


def final_weights(trainer):
    return {
        name: param.data.copy()
        for name, param in trainer.replicas[0].named_parameters()
    }


class TestRunnerBasics:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            runner_for(FaultPlan(), tmp_path, max_retries=0)
        with pytest.raises(ValueError):
            runner_for(FaultPlan(), tmp_path, base_backoff_s=0.0)
        with pytest.raises(ValueError):
            runner_for(FaultPlan(), tmp_path, backoff_factor=0.5)
        with pytest.raises(ValueError):
            runner_for(FaultPlan(), tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError):
            runner_for(FaultPlan(), tmp_path).run(0)

    def test_cadence_defaults_to_young_daly(self, tmp_path):
        comm = ChaosCommunicator(2, track_memory=False)
        runner = ResilientRunner(
            word_factory, word_config(2), tmp_path / "c.npz", comm=comm,
            mtbf_s=500.0, checkpoint_cost_s=2.0, step_time_s=1.5,
        )
        assert runner.checkpoint_every == optimal_checkpoint_steps(
            1.5, 2.0, 500.0
        )

    def test_fault_free_run_trains_and_checkpoints(self, tmp_path):
        runner = runner_for(FaultPlan(), tmp_path, checkpoint_every=2)
        trainer = runner.run(5)
        assert trainer.global_step == 5
        assert len(runner.losses) == 5
        kinds = [e.kind for e in runner.events]
        assert kinds.count("checkpoint") == 4  # initial, steps 2 & 4, final
        assert (tmp_path / "ckpt.npz").exists()
        assert_replicas_synchronized(trainer.replicas, atol=0.0)
        # Checkpoint cost is charged to the timeline.
        names = {e["name"] for e in runner.chrome_trace()}
        assert "checkpoint" in names

    def test_total_simulated_time_sums_generations(self, tmp_path):
        runner = runner_for(FaultPlan(), tmp_path)
        runner.run(3)
        assert runner.total_simulated_time() == pytest.approx(
            sum(tl.makespan for tl in runner.timelines)
        )
        assert runner.total_simulated_time() > 0


def rank0_backoffs(trainer):
    """Rank 0's charged backoff durations, in order.

    A compute event stores its start and end, so a duration read back
    can differ from the charged seconds in the last bit.
    """
    return [
        e.duration for e in trainer.comm.timeline.events
        if e.rank == 0 and e.name.startswith("retry-backoff:")
    ]


class TestTransientRecovery:
    def test_retry_with_backoff_charged_to_timeline_and_ledger(
        self, tmp_path
    ):
        plan = FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2,
                        rank=1, retries=2)]
        )
        runner = runner_for(plan, tmp_path, base_backoff_s=0.5)
        trainer = runner.run(4)
        assert trainer.config.world_size == 3  # no shrink for transients
        retries = [e for e in runner.events if e.kind == "retry"]
        assert len(retries) == 2
        # Exponential backoff: 0.5s then 1.0s, on the compute streams.
        backoff_events = [
            e for e in runner.chrome_trace()
            if e["name"].startswith("retry-backoff:")
        ]
        assert len(backoff_events) == 2 * 3  # per attempt, per rank
        assert rank0_backoffs(trainer) == pytest.approx([0.5, 1.0])
        # Backoff is compute time only: no collective records it.
        assert {e.op for e in trainer.comm.ledger.events} <= {
            "allreduce", "allgather", "reduce_scatter",
        }
        assert_replicas_synchronized(trainer.replicas, atol=0.0)

    def test_backoff_is_capped(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2,
                        retries=3)]
        )
        runner = runner_for(
            plan, tmp_path, base_backoff_s=1.0, backoff_factor=10.0,
            max_backoff_s=5.0, max_retries=4,
        )
        trainer = runner.run(3)
        assert rank0_backoffs(trainer) == pytest.approx([1.0, 5.0, 5.0])

    def test_rewind_restores_loss_scaler_state(self, tmp_path):
        """A rewound step must also roll back the dynamic scaler's
        counters, or the faulted arm grows its scale on a different
        cadence and diverges."""
        cfg = TrainConfig(
            world_size=2, batch=BatchSpec(2, 6), base_lr=0.2,
            loss_scale="dynamic",
        )
        plan = FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2,
                        retries=2)]
        )
        chaos = runner_for(plan, tmp_path, world=2, cfg=cfg)
        faulted = chaos.run(5)

        (tmp_path / "clean").mkdir(exist_ok=True)
        baseline = runner_for(FaultPlan(), tmp_path / "clean", world=2,
                              cfg=cfg)
        clean = baseline.run(5)

        assert faulted.scaler.scale == clean.scaler.scale
        clean_weights = final_weights(clean)
        for name, data in final_weights(faulted).items():
            np.testing.assert_array_equal(
                data, clean_weights[name], err_msg=name
            )

    def test_exhausted_retries_escalate_to_eviction(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2,
                        rank=2, retries=50)]
        )
        runner = runner_for(plan, tmp_path, max_retries=2)
        trainer = runner.run(4)
        assert trainer.config.world_size == 2
        kinds = [e.kind for e in runner.events]
        assert "retries-exhausted" in kinds
        assert "resume" in kinds
        assert runner.lr_scale == pytest.approx(2 / 3)


class TestElasticShrink:
    def test_rank_loss_shrinks_world_and_resumes(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=5, rank=2)]
        )
        runner = runner_for(plan, tmp_path, checkpoint_every=2)
        trainer = runner.run(6)
        assert trainer.config.world_size == 2
        assert trainer.global_step == 6
        assert runner.lr_scale == pytest.approx(2 / 3)
        assert len(runner.timelines) == 2
        kinds = [e.kind for e in runner.events]
        assert "rank-loss" in kinds and "resume" in kinds
        assert_replicas_synchronized(trainer.replicas, atol=0.0)
        # Both generations appear in the merged trace.
        generations = {
            e["args"]["generation"] for e in runner.chrome_trace()
        }
        assert generations == {0, 1}

    @pytest.mark.parametrize("factory", [word_factory, char_factory])
    def test_shrunken_world_binds_one_parameter_set(self, tmp_path, factory):
        """The rebuilt trainer restores from the checkpoint in place:
        the survivors still bind replica 0's arrays (and so still take
        the batched fast path) after the world changed under them."""
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=5, rank=1)]
        )
        runner = runner_for(
            plan, tmp_path, world=4, factory=factory, cfg=word_config(4),
            checkpoint_every=2,
        )
        first = runner.trainer
        trainer = runner.run(6)
        assert trainer is not first and len(trainer.replicas) == 3
        base = list(trainer.replicas[0].parameters())
        for replica in trainer.replicas[1:]:
            for p, shared in zip(replica.parameters(), base, strict=True):
                assert p.data is shared.data
        assert trainer.batched_executor.active

    def test_world_of_one_cannot_shrink(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=0, rank=0)]
        )
        runner = runner_for(plan, tmp_path, world=1, cfg=word_config(1))
        with pytest.raises(RankFailureError):
            runner.run(3)

    def test_acceptance_scenario(self, tmp_path):
        """ISSUE acceptance: 2 transient link faults + 1 permanent rank
        loss complete end-to-end; retry/backoff time is visible in the
        trace and the final replicas are bit-identical."""
        plan = FaultPlan(
            [
                FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2,
                           rank=1, retries=1),
                FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=4,
                           rank=0, retries=2),
                FaultEvent(FaultKind.RANK_LOSS, collective_index=11,
                           rank=2),
            ],
            seed=0,
        )
        runner = runner_for(plan, tmp_path, checkpoint_every=2)
        trainer = runner.run(10)
        assert trainer.global_step == 10
        assert trainer.config.world_size == 2
        assert_replicas_synchronized(trainer.replicas, atol=0.0)
        names = {e["name"] for e in runner.chrome_trace()}
        assert any(n.startswith("retry-backoff:") for n in names)
        assert "checkpoint" in names


class TestDifferentialChaos:
    """Same plan, two arms: chaos vs fault-free."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_transient_only_plan_is_bit_exact(self, tmp_path, seed):
        plan = FaultPlan.random(
            seed=seed, world_size=3, num_collectives=25,
            n_transient=2, n_rank_loss=0,
        )
        # Budget above the plan's worst case (2 events x <=3 retries can
        # stack at one index) so no transient escalates to an eviction.
        chaos = runner_for(plan, tmp_path, base_backoff_s=0.1, max_retries=8)
        faulted = chaos.run(6)
        assert len(chaos.trainer.comm.replay.injected) > 0, (
            "plan injected nothing; differential arm is vacuous"
        )

        baseline = runner_for(FaultPlan(), tmp_path / "clean")
        (tmp_path / "clean").mkdir(exist_ok=True)
        clean = baseline.run(6)

        clean_weights = final_weights(clean)
        for name, data in final_weights(faulted).items():
            np.testing.assert_array_equal(
                data, clean_weights[name],
                err_msg=f"{name} diverged under transient faults (seed "
                        f"{seed}): retries are not bit-exact",
            )

    def test_transient_fault_on_a_fused_ring_hop_is_bit_exact(self, tmp_path):
        """Fault plans see ``issue_scheduled``: a TRANSIENT_LINK landing
        on a hop of the fused compress-reduce ring fires, is retried,
        and leaves the weights bit-identical to the fault-free arm."""
        cfg = TrainConfig(
            world_size=3, batch=BatchSpec(2, 6), base_lr=0.2,
            fused_reduce=True, wire_codec="fp16",
        )
        (tmp_path / "clean").mkdir()
        baseline = runner_for(FaultPlan(), tmp_path / "clean", cfg=cfg)
        clean = baseline.run(4)
        ops = [e.op for e in clean.comm.ledger.events]
        assert clean.comm.replay.collectives_issued == len(ops)
        hop = ops.index("fused_allreduce", len(ops) // 2)

        plan = FaultPlan([
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=hop,
                       rank=1, retries=1),
        ])
        chaos = runner_for(plan, tmp_path, cfg=cfg)
        faulted = chaos.run(4)
        assert [(i, op) for i, op, _ in faulted.comm.replay.injected] == [
            (hop, "fused_allreduce")
        ]
        assert sum(e.kind == "retry" for e in chaos.events) == 1
        clean_weights = final_weights(clean)
        for name, data in final_weights(faulted).items():
            np.testing.assert_array_equal(data, clean_weights[name])

    def test_transient_bit_exact_with_stateful_dropout_model(self, tmp_path):
        """The adversarial case for rewind: dropout RNG streams and
        carried BPTT state are both consumed mid-step."""
        cfg = TrainConfig(world_size=2, batch=BatchSpec(2, 6), base_lr=2e-3)
        plan = FaultPlan(
            [
                FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2,
                           retries=2),
                FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=4,
                           rank=1, retries=1),
            ]
        )
        chaos = runner_for(
            plan, tmp_path, world=2, factory=char_factory, cfg=cfg
        )
        faulted = chaos.run(5)
        # Pinned replay positions: the dense run (rhn.r, then
        # loss_layer.bias), the retry's embedding gather, the run again.
        assert [(i, op) for i, op, _ in chaos.trainer.comm.replay.injected] == [
            (2, "allreduce"), (2, "allgather"), (4, "allreduce"),
        ]

        (tmp_path / "clean").mkdir(exist_ok=True)
        baseline = runner_for(
            FaultPlan(), tmp_path / "clean", world=2, factory=char_factory,
            cfg=cfg,
        )
        clean = baseline.run(5)

        clean_weights = final_weights(clean)
        for name, data in final_weights(faulted).items():
            np.testing.assert_array_equal(
                data, clean_weights[name], err_msg=name
            )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_elastic_shrink_perplexity_within_tolerance(self, tmp_path, seed):
        plan = FaultPlan.random(
            seed=seed, world_size=3, num_collectives=30,
            n_transient=1, n_rank_loss=1,
        )
        chaos = runner_for(plan, tmp_path, checkpoint_every=2)
        faulted = chaos.run(8)
        assert faulted.config.world_size == 2
        assert faulted.global_step == 8

        (tmp_path / "clean").mkdir(exist_ok=True)
        baseline = runner_for(FaultPlan(), tmp_path / "clean")
        clean = baseline.run(8)

        ppl_faulted = perplexity(faulted.evaluate())
        ppl_clean = perplexity(clean.evaluate())
        # The elastic arm trains part of the run at 2/3 the global batch
        # with a rescaled LR; it cannot be bit-exact, but it must land in
        # the same perplexity regime as the undisturbed run.
        assert np.isfinite(ppl_faulted)
        assert ppl_faulted == pytest.approx(ppl_clean, rel=0.25)
