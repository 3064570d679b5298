"""Command-line interface: run the reproduction's experiments directly.

Subcommands::

    python -m repro.cli zipf     [--dataset 1b --tokens 1000000]
    python -m repro.cli train    [--model word|char --gpus 8 --steps 100 ...]
    python -m repro.cli perf     [--table 3|4|5]
    python -m repro.cli example  # the Section III-A worked example
    python -m repro.cli lint     [paths ... --rules REPRO001,REPRO006]
    python -m repro.cli serve-bench [--model word --gpus 4 --requests 48
                                     --slo 0.5 --fault-plan plan.json]
    python -m repro.cli trace    TELEMETRY_DIR [--out trace.json]
    python -m repro.cli verify-spmd [paths ... --gpus 4 --steps 8
                                     --fault-plan plan.json]

Every command prints the same rows the corresponding paper table or
figure reports; heavy lifting is delegated to the library so the CLI is
a thin, testable shell.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Language Modeling at Scale' "
        "(Patwary et al., IPPS 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_zipf = sub.add_parser("zipf", help="Figure 1 type/token statistics")
    p_zipf.add_argument("--dataset", default="1b",
                        choices=["1b", "gb", "cc", "ar", "tieba"])
    p_zipf.add_argument("--tokens", type=int, default=1_000_000)
    p_zipf.add_argument("--seed", type=int, default=0)

    p_train = sub.add_parser("train", help="miniature distributed training")
    p_train.add_argument("--model", default="word", choices=["word", "char"])
    p_train.add_argument("--gpus", type=int, default=4)
    p_train.add_argument("--steps", type=int, default=100)
    p_train.add_argument("--vocab", type=int, default=300)
    p_train.add_argument("--corpus-tokens", type=int, default=40_000)
    p_train.add_argument("--baseline", action="store_true",
                         help="use the ALLGATHER baseline instead of the "
                         "paper's unique exchange")
    p_train.add_argument("--fp16", action="store_true",
                         help="enable FP16 compression-scaling on the wire "
                         "(sugar for an fp16 value slot in --wire-codec)")
    p_train.add_argument("--wire-codec", default=None, metavar="SPEC",
                         help="wire-compression policy: 'fp16' compresses "
                         "value traffic, 'delta'/'rle'/'entropy' losslessly "
                         "compress the index allgather, 'auto' selects per "
                         "message from the crossover cost model, 'none' is "
                         "the explicit uncompressed baseline; slots combine "
                         "as 'fp16+entropy', 'fp16:1024', 'delta:128'")
    p_train.add_argument("--wire-chunk-bytes", type=int, default=None,
                         metavar="N",
                         help="chunk the compressed index gather into N-byte "
                         "pieces so encode of chunk i+1 overlaps transmit "
                         "of chunk i (requires --wire-codec)")
    p_train.add_argument("--fused-reduce", action="store_true",
                         help="run dense gradient allreduces as fused "
                         "compress-reduce rings: the value codec is applied "
                         "inside the collective and partial sums travel "
                         "compressed (bit-identical numerics; with --mesh "
                         "the ring runs per data subgroup)")
    p_train.add_argument("--mesh", default=None, metavar="SPEC",
                         help="hybrid-parallelism mesh over the world, e.g. "
                         "'pipe=2,tensor=2,data=G/4' (axes default to 1; "
                         "'G/4' or an empty value means 'whatever remains'; "
                         "the product must equal --gpus); gradient sync "
                         "runs on the data axis only and pipeline "
                         "activation sends are charged on the pipe axis; "
                         "composes with every other flag")
    p_train.add_argument("--seed-strategy", default="per_rank",
                         choices=[s.value for s in _seed_strategies()])
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--sanitize", action="store_true",
                         help="hook the runtime sanitizer onto the "
                         "communicator and codecs (collective mismatch, "
                         "FP16 overflow, and ledger-scope checking)")
    p_train.add_argument("--overlap", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="issue gradient collectives layer-by-layer "
                         "during backward instead of in one blocking sync "
                         "(numerics are bit-identical either way)")
    p_train.add_argument("--resilient", action="store_true",
                         help="run under the supervised recovery loop "
                         "(ResilientRunner): transient faults are retried "
                         "with backoff, permanent rank losses shrink the "
                         "world and resume from checkpoint")
    p_train.add_argument("--fault-plan", default=None, metavar="FILE",
                         help="JSON FaultPlan to replay through a "
                         "ChaosCommunicator (implies --resilient); without "
                         "a file a demo plan with two transient link "
                         "faults and one rank loss is injected")
    p_train.add_argument("--checkpoint", default=None, metavar="FILE",
                         help="checkpoint path for --resilient runs "
                         "(default: a temporary file)")
    p_train.add_argument("--verify-spmd", action="store_true",
                         help="attach the lockstep verifier to the "
                         "communicator: every collective's (op, tag, shape, "
                         "dtype) fingerprint is cross-checked across ranks "
                         "at wait points, converting would-be "
                         "deadlocks into immediate diagnostics")
    p_train.add_argument("--telemetry-dir", default=None, metavar="DIR",
                         help="stream per-step JSONL, Prometheus/JSON "
                         "metric exports, and merged chrome traces into "
                         "DIR (see docs/OBSERVABILITY.md); inspect with "
                         "the 'trace' subcommand")

    p_perf = sub.add_parser("perf", help="paper-scale time/memory tables")
    p_perf.add_argument("--table", type=int, default=3, choices=[3, 4, 5])

    p_gen = sub.add_parser(
        "generate", help="train a tiny char LM on sample text and sample from it"
    )
    p_gen.add_argument("--steps", type=int, default=150)
    p_gen.add_argument("--length", type=int, default=80)
    p_gen.add_argument("--temperature", type=float, default=0.7)
    p_gen.add_argument("--prompt", default="the ")
    p_gen.add_argument("--seed", type=int, default=0)

    sub.add_parser("example", help="Section III-A worked memory example")

    p_lint = sub.add_parser(
        "lint", help="run the REPRO static-analysis rules over source paths"
    )
    p_lint.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    p_lint.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run "
                        "(default: all registered rules)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="describe the registered rules and exit")

    p_verify = sub.add_parser(
        "verify-spmd",
        help="two-layer SPMD collective-matching verification: static "
        "rank-divergence lint (REPRO010-012) plus a dynamic lockstep "
        "replay of a fault plan under the LockstepVerifier",
    )
    p_verify.add_argument("paths", nargs="*", default=["src/repro"],
                          help="files or directories for the static pass "
                          "(default: src/repro)")
    p_verify.add_argument("--gpus", type=int, default=4,
                          help="world size for the dynamic replay")
    p_verify.add_argument("--steps", type=int, default=8,
                          help="training steps for the dynamic replay")
    p_verify.add_argument("--fault-plan", default=None, metavar="FILE",
                          help="JSON FaultPlan to replay under the verifier "
                          "(default: train --resilient's demo plan)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--static-only", action="store_true",
                          help="skip the dynamic lockstep replay")
    p_verify.add_argument("--dynamic-only", action="store_true",
                          help="skip the static taint lint")

    p_serve = sub.add_parser(
        "serve-bench",
        help="continuous-batching inference benchmark: Zipfian/bursty "
        "traffic through the serving engine vs. naive one-at-a-time "
        "decode, with latency/goodput metrics from telemetry",
    )
    p_serve.add_argument("--model", default="word", choices=["word", "char"])
    p_serve.add_argument("--gpus", type=int, default=4,
                         help="replica-group size for the sharded lookup")
    p_serve.add_argument("--requests", type=int, default=48)
    p_serve.add_argument("--vocab", type=int, default=200)
    p_serve.add_argument("--max-batch", type=int, default=8)
    p_serve.add_argument("--temperature", type=float, default=0.0)
    p_serve.add_argument("--slo", type=float, default=None, metavar="SECONDS",
                         help="per-request SLO budget; queued requests "
                         "past it are dropped (default: no deadline)")
    p_serve.add_argument("--cache-budget", type=int, default=None,
                         metavar="BYTES",
                         help="state-cache budget (default: 4 MiB)")
    p_serve.add_argument("--fault-plan", default=None, metavar="FILE",
                         help="JSON FaultPlan replayed through a "
                         "ChaosCommunicator during serving")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--telemetry-dir", default=None, metavar="DIR",
                         help="stream per-decode-step JSONL and metric "
                         "exports into DIR")

    p_trace = sub.add_parser(
        "trace", help="merge and validate the traces of a telemetry dir"
    )
    p_trace.add_argument("telemetry_dir", metavar="TELEMETRY_DIR",
                         help="directory written by train --telemetry-dir")
    p_trace.add_argument("--out", default=None, metavar="FILE",
                         help="merged chrome trace output path "
                         "(default: TELEMETRY_DIR/trace.json)")
    return parser


def _seed_strategies():
    from repro.core.seeding import SeedStrategy

    return list(SeedStrategy)


def _cmd_zipf(args: argparse.Namespace) -> int:
    from repro.data import (
        PRESETS,
        fit_heaps_law,
        make_corpus,
        token_type_gap,
        type_token_curve,
    )
    from repro.report import format_series

    preset = PRESETS[args.dataset]
    scaled = preset.scaled(min(preset.vocab_size, max(2, args.tokens // 5)))
    corpus = make_corpus(scaled, args.tokens, seed=args.seed)
    ns, us = type_token_curve(corpus.tokens, num_points=12)
    fit = fit_heaps_law(ns, us)
    print(format_series(args.dataset, ns.tolist(), us.tolist()))
    print(
        f"Heaps fit: U = {fit.coefficient:.2f} N^{fit.exponent:.3f} "
        f"(R^2 = {fit.r_squared:.4f}); paper: U = 7.02 N^0.64"
    )
    print(f"Token/type gap at N = {args.tokens}: "
          f"{token_type_gap(corpus.tokens):.1f}x")
    return 0


def _validate_train_args(args: argparse.Namespace, cfg) -> str | None:
    """What ``TrainConfig`` cannot know about a ``train`` invocation.

    Returns an actionable error message, or ``None`` when the
    combination is runnable.  Everything about the run description
    itself (world size, wire spec, mesh) was already validated by
    ``TrainConfig.__post_init__``.
    """
    if args.steps <= 0:
        return f"--steps must be positive, got {args.steps}"
    resilient = args.resilient or args.fault_plan is not None
    if resilient and args.sanitize:
        return "--resilient and --sanitize are mutually exclusive"
    if (
        resilient
        and args.mesh is not None
        and cfg.device_mesh.axis_size("data") == 1
    ):
        return (f"--resilient cannot recover on mesh {args.mesh!r}: "
                f"rank-loss recovery collapses the data axis only, and "
                f"data=1 leaves nothing to collapse; use data>=2 or drop "
                f"--resilient")
    return None


def _wire_spec(args: argparse.Namespace) -> str | None:
    """The ``TrainConfig.wire_codec`` spec: ``--fp16`` is sugar for its value slot."""
    spec = args.wire_codec
    if not args.fp16 or spec == "fp16":
        return spec
    return "fp16" if spec in (None, "none") else f"fp16+{spec}"


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import SeedStrategy
    from repro.data import BatchSpec, ONE_BILLION_WORD, TIEBA, make_corpus
    from repro.optim import SGD, Adam
    from repro.train import (
        CharLanguageModel,
        CharLMConfig,
        DistributedTrainer,
        TrainConfig,
        WordLanguageModel,
        WordLMConfig,
        max_replica_divergence,
        perplexity,
    )

    # The run description is validated (by TrainConfig itself) before
    # any corpus or model is built, so a typo'd spec or a doomed flag
    # pairing fails here and not minutes in with a library traceback.
    is_word = args.model == "word"
    try:
        cfg = TrainConfig(
            world_size=args.gpus,
            batch=BatchSpec(2, 10),
            base_lr=0.3 if is_word else 3e-3,
            use_unique=not args.baseline,
            seed_strategy=SeedStrategy(args.seed_strategy),
            overlap=args.overlap,
            wire_codec=_wire_spec(args),
            wire_chunk_bytes=args.wire_chunk_bytes,
            fused_reduce=args.fused_reduce,
            mesh=args.mesh,
        )
        error = _validate_train_args(args, cfg)
    except ValueError as exc:
        error = str(exc)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2

    preset = ONE_BILLION_WORD if is_word else TIEBA
    corpus = make_corpus(preset.scaled(args.vocab), args.corpus_tokens,
                         seed=args.seed)
    comm = None
    if args.sanitize:
        from repro.analysis import Sanitizer
        from repro.cluster import Communicator

        comm = Sanitizer(
            Communicator(args.gpus, track_memory=False),
            require_scope=True,
            lockstep=args.verify_spmd,
        )
    elif args.verify_spmd and not (args.resilient or args.fault_plan):
        from repro.cluster import Communicator, LockstepVerifier

        comm = Communicator(args.gpus, track_memory=False)
        LockstepVerifier.attach(comm)
    if is_word:
        model_cfg = WordLMConfig(
            vocab_size=args.vocab, embedding_dim=16, hidden_dim=24,
            projection_dim=16, num_samples=min(32, args.vocab - 1),
        )

        def make_trainer(run_cfg, run_comm):
            return DistributedTrainer(
                lambda rng, rank: WordLanguageModel(model_cfg, rng),
                lambda params, lr: SGD(params, lr),
                corpus.train, corpus.valid, run_cfg, comm=run_comm,
            )
    else:
        model_cfg = CharLMConfig(
            vocab_size=args.vocab, embedding_dim=12, hidden_dim=16,
            depth=2, dropout=0.0,
        )

        def make_trainer(run_cfg, run_comm):
            return DistributedTrainer(
                lambda rng, rank: CharLanguageModel(
                    model_cfg, rng, dropout_rng=np.random.default_rng(rank)
                ),
                lambda params, lr: Adam(params, lr),
                corpus.train, corpus.valid, run_cfg, comm=run_comm,
            )

    session = None
    if args.telemetry_dir is not None:
        from repro.telemetry import TelemetrySession

        session = TelemetrySession(args.telemetry_dir)

    if args.resilient or args.fault_plan is not None:
        return _run_resilient(args, cfg, make_trainer, session)

    trainer = make_trainer(cfg, comm)
    if session is not None:
        session.adopt_trainer(trainer)

    print(f"{args.model} LM | {args.gpus} simulated GPUs | vocab {args.vocab} "
          f"| exchange: {'allgather' if args.baseline else 'unique'}"
          f"{' + fp16' if args.fp16 else ''}"
          f"{f' | wire: {args.wire_codec}' if args.wire_codec else ''}"
          f"{' | fused-reduce' if args.fused_reduce else ''}"
          f"{f' | mesh: {args.mesh}' if args.mesh else ''}"
          f"{' | overlapped' if args.overlap else ''}"
          f"{' | sanitized' if args.sanitize else ''}"
          f"{' | lockstep-verified' if args.verify_spmd else ''}")
    print(f"initial val ppl: {perplexity(trainer.evaluate()):.2f}")
    for step in range(args.steps):
        loss = trainer.train_step()
        if (step + 1) % max(1, args.steps // 5) == 0:
            print(f"  step {step + 1:5d}  loss {loss:.3f}  "
                  f"val ppl {perplexity(trainer.evaluate()):.2f}")
    print(f"final val ppl: {perplexity(trainer.evaluate()):.2f}")
    print(f"wire MB/GPU: "
          f"{trainer.comm.ledger.total_wire_bytes_per_rank / 1e6:.2f}")
    if args.wire_codec:
        factor = trainer.comm.ledger.compression_factor(":indices")
        print(f"index compression: {factor:.2f}x (measured, logical/wire)")
    print(f"replica divergence: {max_replica_divergence(trainer.replicas):.1e}")
    if args.sanitize:
        op_log = trainer.comm.finish()
        print(f"sanitizer: {len(op_log)} collectives checked, 0 violations")
    if args.verify_spmd:
        verifier = getattr(trainer.comm, "verifier", None)
        if verifier is not None:
            verifier.check("train: end of run")
            print(f"lockstep: {verifier.collectives_observed} collective(s) "
                  f"fingerprint-verified across "
                  f"{len(verifier.live_ranks)} rank(s), 0 divergences")
            if verifier.axis_rings:
                print("lockstep: per-axis mesh subgroups "
                      f"({', '.join(sorted(verifier.axis_rings))}) verified, "
                      "0 divergences")
    if session is not None:
        summary = session.finalize()
        print(f"telemetry: {summary['steps']} steps, "
              f"{summary['trace']['events']} trace events -> "
              f"{args.telemetry_dir}")
    return 0


def _run_resilient(args: argparse.Namespace, cfg, make_trainer,
                   session=None) -> int:
    """The ``train --resilient`` path: supervised recovery over a fault plan."""
    import tempfile

    from repro.cluster import ChaosCommunicator, FaultEvent, FaultKind, FaultPlan
    from repro.train import ResilientRunner, max_replica_divergence, perplexity

    if args.fault_plan is not None:
        plan = FaultPlan.load(args.fault_plan)
    else:
        # Demo plan: two transient link faults early, one permanent rank
        # loss mid-run (skipped on a single-GPU world, which cannot shrink).
        events = [
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2,
                       rank=min(1, args.gpus - 1)),
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=7,
                       rank=0, retries=2),
        ]
        if args.gpus > 1:
            events.append(
                FaultEvent(FaultKind.RANK_LOSS,
                           collective_index=3 * args.steps,
                           rank=args.gpus - 1)
            )
        plan = FaultPlan(events, seed=args.seed)
    comm = ChaosCommunicator(args.gpus, plan=plan, track_memory=False)
    if args.verify_spmd:
        from repro.cluster import LockstepVerifier

        LockstepVerifier.attach(comm)
    checkpoint = args.checkpoint or str(
        Path(tempfile.mkdtemp(prefix="repro-resilient-")) / "checkpoint.npz"
    )
    runner = ResilientRunner(
        make_trainer, cfg, checkpoint, comm=comm,
        checkpoint_every=max(1, args.steps // 4),
        telemetry=session,
    )
    print(f"resilient {args.model} LM | {args.gpus} simulated GPUs | "
          f"{len(plan)} scheduled fault(s) | checkpoint: {checkpoint}")
    trainer = runner.run(args.steps)
    for event in runner.events:
        print(f"  [{event.kind:>17}] step {event.global_step:4d}  {event.detail}")
    retries = sum(1 for e in runner.events if e.kind == "retry")
    print(f"final world: {trainer.config.world_size} | "
          f"final val ppl: {perplexity(trainer.evaluate()):.2f} | "
          f"lr scale: {runner.lr_scale:.3f}")
    print(f"replica divergence: {max_replica_divergence(trainer.replicas):.1e}")
    print(f"simulated time: {runner.total_simulated_time():.4f}s "
          f"across {len(runner.timelines)} communicator generation(s), "
          f"{retries} retr{'y' if retries == 1 else 'ies'} charged")
    if args.verify_spmd:
        if trainer.comm.verifier is not None:
            trainer.comm.verifier.check("train: end of run")
        total = sum(v.collectives_observed for v in runner.verifiers
                    if v is not None)
        print(f"lockstep: {total} collective(s) fingerprint-verified "
              f"across {len(runner.verifiers)} verifier generation(s), "
              f"0 divergences")
    if session is not None:
        summary = session.finalize()
        print(f"telemetry: {summary['steps']} steps, "
              f"{summary['events']} recovery events, "
              f"{summary['trace']['events']} trace events -> "
              f"{args.telemetry_dir}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf import (
        ALL_TECHNIQUES,
        BASELINE,
        CHAR_LM_1B,
        CHAR_LM_TIEBA,
        WORD_LM_1B,
        PerfModel,
    )
    from repro.report import format_table

    if args.table in (3, 4):
        workload = WORD_LM_1B if args.table == 3 else CHAR_LM_1B
        model = PerfModel(workload)
        rows = []
        for g in (8, 16, 24, 32, 64):
            oom = model.is_oom(g, BASELINE)
            rows.append(
                [
                    g,
                    "OOM *" if oom else f"{model.epoch_hours(g, BASELINE):.1f}",
                    f"{model.epoch_hours(g, ALL_TECHNIQUES):.1f}",
                    f"{model.parallel_efficiency(g, ALL_TECHNIQUES):.0%}",
                ]
            )
        print(
            format_table(
                ["GPUs", "without (h)", "with (h)", "efficiency"],
                rows,
                title=f"Table {'III' if args.table == 3 else 'IV'} — "
                f"{workload.name}",
            )
        )
    else:
        rows = []
        base = None
        for g, factor in ((6, 1), (24, 4), (192, 32)):
            w = CHAR_LM_TIEBA.scaled(tokens_per_epoch=1.07e9 * factor)
            h = PerfModel(w).epoch_hours(g, ALL_TECHNIQUES)
            base = base or h
            rows.append([g, f"{factor}x", f"{h:.1f}", f"{h / base:.2f}x"])
        print(
            format_table(
                ["GPUs", "data", "hours", "increase"],
                rows,
                title="Table V — Tieba weak scaling",
            )
        )
    return 0


def _cmd_example(_args: argparse.Namespace) -> int:
    from repro.core import worked_example_256_gpus

    ex = worked_example_256_gpus()
    print("Section III-A worked example (256 GPUs, K = 19,200, D = 1792):")
    print(f"  baseline ALLGATHER : {ex.baseline_memory_bytes / 1e9:6.1f} GB/GPU")
    print(f"  unique exchange    : {ex.unique_memory_bytes / 1e9:6.3f} GB/GPU")
    print(f"  reduction          : {ex.reduction_factor:6.0f}x  (paper: 256x)")
    return 0


_SAMPLE_TEXT = (
    "the quick brown fox jumps over the lazy dog while the quiet river "
    "runs past the old stone bridge and the wind moves through the tall "
    "grass where the small birds sing in the early light of the morning "
    "and the slow clouds drift over the green hills toward the distant "
    "sea where the white ships sail on the long waves under the open sky "
)


def _cmd_generate(args: argparse.Namespace) -> int:
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

    corpus = encode_corpus(_SAMPLE_TEXT * 12, tokenizer=CharTokenizer())
    split = int(corpus.tokens.size * 0.95)
    cfg = TrainConfig(world_size=2, batch=BatchSpec(4, 16), base_lr=4e-3)
    model_cfg = CharLMConfig(
        vocab_size=corpus.vocab_size, embedding_dim=12, hidden_dim=32,
        depth=2, dropout=0.0,
    )
    trainer = DistributedTrainer(
        lambda rng, rank: CharLanguageModel(
            model_cfg, rng, dropout_rng=np.random.default_rng(rank),
            stateful=True,
        ),
        lambda params, lr: Adam(params, lr),
        corpus.tokens[:split], corpus.tokens[split:], cfg,
    )
    print(f"training a char LM on {corpus.tokens.size} characters "
          f"({corpus.vocab_size} symbols), {args.steps} steps...")
    for _ in range(args.steps):
        trainer.train_step()
    print(f"validation: {bits_per_char(trainer.evaluate()):.2f} bits/char")
    prompt_ids = np.array(
        [corpus.stoi(c) for c in args.prompt], dtype=np.int64
    )
    sample = generate(
        trainer.replicas[0], prompt_ids, args.length,
        np.random.default_rng(args.seed), temperature=args.temperature,
    )
    print(f"sample: {args.prompt}{corpus.decode(sample, sep='')}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        LintEngine,
        default_rules,
        format_findings,
        iter_rule_classes,
    )

    if args.list_rules:
        for cls in iter_rule_classes():
            print(f"{cls.rule_id}  {cls.title}")
            print(f"    {cls.rationale}")
        return 0
    only = None
    if args.rules is not None:
        only = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        engine = LintEngine(default_rules(only))
    except ValueError as exc:
        known = ", ".join(cls.rule_id for cls in iter_rule_classes())
        print(f"error: {exc} (known rules: {known})", file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = engine.lint_paths(args.paths)
    print(format_findings(findings))
    return 1 if findings else 0


_SPMD_RULES = ["REPRO010", "REPRO011", "REPRO012"]


def _cmd_verify_spmd(args: argparse.Namespace) -> int:
    """Two-layer SPMD verification: static taint lint + dynamic lockstep.

    The static pass runs only the rank-divergence rules (REPRO010–012)
    over the given paths; the dynamic pass *is* a miniature
    ``train --resilient --verify-spmd`` run — a fault plan replayed with
    the :class:`~repro.cluster.lockstep.LockstepVerifier` attached, so
    any collective-sequence divergence surfaces as an immediate error
    instead of a simulated deadlock.  Exit code 1 on any finding or
    divergence, 0 when both layers are clean.
    """
    from repro.analysis import (
        LintEngine,
        SanitizerError,
        default_rules,
        format_findings,
    )

    if args.static_only and args.dynamic_only:
        print("error: --static-only and --dynamic-only are mutually "
              "exclusive", file=sys.stderr)
        return 2
    rc = 0
    if not args.dynamic_only:
        missing = [p for p in args.paths if not Path(p).exists()]
        if missing:
            print(f"error: no such path: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        findings = LintEngine(default_rules(_SPMD_RULES)).lint_paths(args.paths)
        print(f"static ({', '.join(_SPMD_RULES)} over "
              f"{', '.join(args.paths)}): {format_findings(findings)}")
        if findings:
            rc = 1
    if not args.static_only:
        replay = ["train", "--resilient", "--verify-spmd", "--vocab", "120",
                  "--corpus-tokens", "8000", "--gpus", str(args.gpus),
                  "--steps", str(args.steps), "--seed", str(args.seed)]
        if args.fault_plan is not None:
            replay += ["--fault-plan", args.fault_plan]
        try:
            dynamic = _cmd_train(build_parser().parse_args(replay))
        except SanitizerError as exc:
            print(f"dynamic: LOCKSTEP VIOLATION — {exc}", file=sys.stderr)
            return 1
        if dynamic == 0:
            print("dynamic: lockstep OK")
        rc = max(rc, dynamic)
    return rc


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Serve a deterministic traffic stream; print the latency story.

    Runs the same requests through the continuous-batching engine and
    the naive one-request-at-a-time baseline (token-identical by
    construction — the differential suite enforces it), then prints the
    telemetry-derived comparison: p50/p99 TTFT, per-token latency,
    goodput under SLO, and the cache/recovery counters.
    """
    from repro.cluster.communicator import Communicator
    from repro.cluster.failures import ChaosCommunicator, FaultPlan
    from repro.serve import (
        ArrivalSpec,
        ServeConfig,
        ServingEngine,
        TrafficConfig,
        generate_traffic,
        naive_serve,
        report_to_registry,
    )
    from repro.telemetry import MetricsRegistry, TelemetrySession

    rng = np.random.default_rng(args.seed)
    if args.model == "word":
        from repro.train.config import WordLMConfig
        from repro.train.word_lm import WordLanguageModel
        from repro.serve import WordLMDecoder

        model_config = WordLMConfig(
            vocab_size=args.vocab,
            embedding_dim=32,
            hidden_dim=64,
            projection_dim=32,
            num_samples=16,
        )
        def make_decoder():
            return WordLMDecoder(
                WordLanguageModel(model_config, np.random.default_rng(args.seed))
            )
    else:
        from repro.train.config import CharLMConfig
        from repro.train.char_lm import CharLanguageModel
        from repro.serve import CharLMDecoder

        model_config = CharLMConfig(
            vocab_size=args.vocab,
            embedding_dim=16,
            hidden_dim=48,
            depth=3,
            dropout=0.0,
        )
        def make_decoder():
            return CharLMDecoder(
                CharLanguageModel(model_config, np.random.default_rng(args.seed))
            )

    traffic = TrafficConfig(
        num_requests=args.requests,
        vocab_size=args.vocab,
        prompt_pool=max(8, args.requests // 4),
        arrivals=ArrivalSpec(
            calm_rate=50.0, burst_rate=500.0, mean_calm_s=0.1, mean_burst_s=0.05
        ),
        slo_s=args.slo if args.slo is not None else float("inf"),
        seed=args.seed,
    )
    requests = generate_traffic(traffic)
    config = ServeConfig(
        max_batch=args.max_batch,
        temperature=args.temperature,
        seed=args.seed,
        drop_expired=args.slo is not None,
        cache_budget_bytes=(
            args.cache_budget if args.cache_budget is not None else 1 << 22
        ),
        decode_token_s=2e-3,
        prefill_token_s=5e-4,
    )

    if args.fault_plan is not None:
        plan = FaultPlan.load(args.fault_plan)
        comm = ChaosCommunicator(args.gpus, plan=plan)
    else:
        comm = Communicator(args.gpus)

    session = None
    if args.telemetry_dir is not None:
        session = TelemetrySession(directory=Path(args.telemetry_dir))
    engine = ServingEngine(make_decoder(), comm, config, telemetry=session)
    report = engine.run(requests)
    registry = session.registry if session is not None else MetricsRegistry()
    summary = report_to_registry(report, registry)
    naive = naive_serve(make_decoder(), requests, config)
    if session is not None:
        session.finalize()

    print(f"serve-bench: {args.model} model, {args.gpus} GPUs, "
          f"{args.requests} requests, max_batch={args.max_batch}")
    print(f"  continuous: makespan {summary['makespan_s']:.4f}s, "
          f"{summary['decode_steps']} decode steps, "
          f"{summary['total_tokens']} tokens "
          f"({summary['tokens_per_s']:.1f} tok/s)")
    print(f"  naive:      makespan {naive.makespan_s:.4f}s "
          f"({naive.makespan_s / max(summary['makespan_s'], 1e-12):.2f}x "
          f"slower, token-identical)")
    print(f"  ttft:       p50 {summary['p50_ttft_s']:.4f}s, "
          f"p99 {summary['p99_ttft_s']:.4f}s")
    print(f"  per-token:  p50 {summary['p50_token_latency_s']:.4f}s, "
          f"p99 {summary['p99_token_latency_s']:.4f}s")
    print(f"  goodput:    {summary['goodput_rps']:.2f} req/s SLO-met "
          f"({summary['slo_met']}/{summary['requests']} requests, "
          f"{summary['dropped']} dropped)")
    cache = summary["cache"]
    print(f"  cache:      {cache['hits']} hits, {cache['misses']} misses, "
          f"{cache['evictions']} evictions; "
          f"{summary['recomputes']} recomputes")
    print(f"  cluster:    {summary['wire_bytes_per_rank']} wire B/rank, "
          f"{summary['generations']} generation(s), "
          f"{summary['readmissions']} readmission(s)")
    if session is not None:
        print(f"  telemetry:  {args.telemetry_dir}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Merge, validate, and cross-check the exports of a telemetry dir.

    Re-merges the generation parts into one chrome trace, validates its
    structure (distinct pid/tid tracks, no negative timestamps, no
    same-track overlaps), and verifies that the Prometheus text export,
    the JSON export, and the ledger totals recomputed from the trace
    parts agree **exactly** — any drift between the three is a
    telemetry bug, not measurement noise.
    """
    import json

    from repro.telemetry import (
        TraceValidationError,
        flatten_samples,
        merged_trace,
        parse_prometheus_text,
        parts_from_json,
        run_totals_from_parts,
        validate_chrome_trace,
        write_trace,
    )

    directory = Path(args.telemetry_dir)
    parts_file = directory / "trace_parts.json"
    if not parts_file.exists():
        print(f"error: {parts_file} not found (was the run started with "
              f"train --telemetry-dir?)", file=sys.stderr)
        return 2
    with open(parts_file) as f:
        parts = parts_from_json(json.load(f))
    trace = merged_trace(parts)
    try:
        summary = validate_chrome_trace(trace)
    except TraceValidationError as exc:
        print(f"error: invalid merged trace: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out is not None else directory / "trace.json"
    write_trace(out, trace)
    print(f"merged trace: {summary['events']} events on "
          f"{summary['tracks']} tracks ({len(summary['pids'])} pids, "
          f"generations {summary['generations']}) -> {out}")

    prom_file = directory / "metrics.prom"
    json_file = directory / "metrics.json"
    if not (prom_file.exists() and json_file.exists()):
        print("exports: not found, skipping agreement check")
        return 0
    with open(json_file) as f:
        json_flat = flatten_samples(json.load(f))
    prom_flat = flatten_samples(parse_prometheus_text(prom_file.read_text()))
    # Prometheus exposition carries no help-only families; compare the
    # sample sets, which must match key-for-key and value-for-value.
    if prom_flat != json_flat:
        diff = set(prom_flat.items()) ^ set(json_flat.items())
        print(f"error: Prometheus and JSON exports disagree on "
              f"{len(diff)} sample(s)", file=sys.stderr)
        return 1
    totals = run_totals_from_parts(parts)
    checks = {
        "repro_run_wire_bytes_per_rank": totals["wire_bytes_per_rank"],
        "repro_run_compression_factor": totals["compression_factor"],
        "repro_run_comm_time_seconds": totals["comm_time_s"],
        "repro_run_simulated_time_seconds": totals["simulated_time_s"],
    }
    for name, expected in checks.items():
        exported = json_flat.get((name, (), "value"))
        if exported != expected:
            print(f"error: {name} export {exported!r} != ledger total "
                  f"{expected!r}", file=sys.stderr)
            return 1
    print(f"exports: prometheus == json ({len(json_flat)} samples), "
          f"ledger totals agree exactly "
          f"(wire {totals['wire_bytes_per_rank']} B/rank, "
          f"compression {totals['compression_factor']:.3f}x, "
          f"comm {totals['comm_time_s']:.4f}s, "
          f"simulated {totals['simulated_time_s']:.4f}s)")
    return 0


_COMMANDS = {
    "zipf": _cmd_zipf,
    "train": _cmd_train,
    "perf": _cmd_perf,
    "generate": _cmd_generate,
    "example": _cmd_example,
    "lint": _cmd_lint,
    "verify-spmd": _cmd_verify_spmd,
    "serve-bench": _cmd_serve_bench,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse ``argv`` and dispatch to the subcommand."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
