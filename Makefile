# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-chaos test-mesh test-telemetry test-serve lint sanitize paper bench bench-smoke bench-wire bench-serve bench-sim dead-code examples results clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Chaos suite: fault-plan replay, transient-fault runs against the
# written-out reference over 5 fixed seeds, the conformance lattice
# (its transient cells), the resilience benchmark smoke, and a 90%
# line-coverage floor on the recovery loop (stdlib-only tracer).
test-chaos:
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		tests/cluster/test_chaos.py tests/train/test_resilience.py \
		tests/conformance
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_resilience_overhead.py --benchmark-only
	PYTHONPATH=src $(PYTHON) tools/check_coverage.py \
		--target src/repro/train/resilience.py --min-percent 90 \
		tests/train/test_resilience.py

# Mesh suite (docs/MESH.md): device-mesh geometry + per-axis collective
# semantics, the 1F1B pipeline schedule, the sharded data-axis gradient
# exchange, the conformance lattice (mesh among every other switch vs
# the written-out reference; docs/CORRECTNESS.md) and the trivial mesh's
# cost table, hybrid-mesh training + elastic shrink, the `train --mesh`
# CLI paths, and the tensor-parallel crossover benchmark with its
# wire-volume gates.
test-mesh:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/cluster/test_mesh.py tests/cluster/test_pipeline.py \
		tests/core/test_mesh_exchange.py \
		tests/train/test_mesh_training.py tests/conformance \
		tests/train/test_sync_composition.py
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/test_cli.py -k "TestTrainMesh"
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_ablation_tensor_parallel.py --benchmark-only

# Telemetry suite: registry and JSON-export semantics, merged-trace
# validity (per-rank pid/tid tracks, no negative or overlapping
# timestamps), the CLI check that metrics.json's run totals equal the
# ledger totals exactly, and the trace-accounting regressions.
test-telemetry:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/telemetry tests/cluster/test_trace_export.py \
		tests/cluster/test_tracing.py
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/test_cli.py -k "telemetry or trace"

# Serving suite (docs/SERVING.md): continuous-batching differential
# (token-identical vs naive decode over 5 seeds), the 200-case property
# suites (no silent drops, eviction safety, token conservation under
# faults), the chaos-composition tests, the serve-bench CLI paths, the
# traffic edge cases, and a 90% line-coverage floor on src/repro/serve.
test-serve:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/serve \
		tests/data/test_zipf.py tests/data/test_burstiness.py
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/test_cli.py -k "ServeBench"
	PYTHONPATH=src $(PYTHON) tools/check_coverage.py \
		--target src/repro/serve --min-percent 90 tests/serve

lint:
	PYTHONPATH=src $(PYTHON) -m repro.cli lint src/repro

# Runtime checker (docs/CORRECTNESS.md): the Sanitizer's unit suite,
# then a sanitized resilient run whose demo fault plan retries two
# transient link faults and shrinks the world once under the checker.
sanitize:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/analysis/test_sanitizer.py
	PYTHONPATH=src $(PYTHON) -m repro.cli train --gpus 3 --steps 8 \
		--resilient --sanitize

# The paper's figures and tables as a regression gate: the 13 benches
# that check them (and the schedule table docs/PERFORMANCE.md quotes)
# run at full size (REPRO_BENCH_FAST cleared), keep every shape
# assertion, and must rewrite their committed result files byte for
# byte.
PAPER_BENCHES = fig1_types_vs_tokens fig5_word_lm_accuracy fig6_ablation \
	fig7_seeding fig8_char_lm_accuracy table1_datasets \
	table3_word_lm_time table4_char_lm_time table5_tieba_weak_scaling \
	amazon_comparison memory_worked_example ablation_compression_scaling \
	ablation_hierarchical
paper:
	PYTHONPATH=src REPRO_BENCH_FAST= $(PYTHON) -m pytest -q -p no:cacheprovider \
		$(PAPER_BENCHES:%=benchmarks/bench_%.py) --benchmark-disable
	git diff --exit-code benchmarks/results/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fast overlap/straggler ablations with their timeline-vs-analytic
# acceptance gates, plus the hierarchical (allreduces executed at
# G = 16, 48 and 64 are charged min(ring, two-level) at the ring's
# bytes; `make paper` gates its full-size table) and bucketing
# (latency/cast batching) ablations — cheap enough to run on every CI
# push.  Their tables go to the git-ignored benchmarks/results/fast/.
bench-smoke:
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_ablation_overlap.py \
		benchmarks/bench_ablation_stragglers.py \
		benchmarks/bench_ablation_hierarchical.py \
		benchmarks/bench_ablation_bucketing.py --benchmark-only

# Wire-compression smoke: measured byte-reduction +
# bit-exactness gates of the codec stack (see docs/COMPRESSION.md).
bench-wire:
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_wire_compression.py --benchmark-only

# Simulator fast-path smoke: batched-vs-per-rank speedup gates at
# G=512 plus the bit-exactness differential (see docs/PERFORMANCE.md).
bench-sim:
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_micro_simulator.py --benchmark-only

# Serving smoke: continuous-vs-naive makespan and p99-TTFT regression
# gates plus the token-identity check (see docs/SERVING.md).
bench-serve:
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_serving.py --benchmark-only

# Dead-code report and ratchet (a CI job): every src/repro function that
# no entry point enters — each example, the CLI subcommands (train and
# serve-bench also replay a fault plan written into $(DEAD_DIR)), the
# five e2e workloads and every bench in fast mode, one process each
# because the profile hook never sees child processes.  The benches run
# with --benchmark-disable: a timed run pauses the hook; like every
# fast-mode target they write benchmarks/results/fast/ (git-ignored).  The
# target fails when more than DEAD_CEILING functions are never entered:
# lower the ceiling whenever the count goes down, never raise it.
DEAD_CEILING = 57
DEAD_DIR ?= .dead-code
DEAD = PYTHONPATH=src $(PYTHON) tools/check_coverage.py --functions $(DEAD_DIR)/entered.log --
DEAD_PLAN = {"events": [{"kind": "transient_link", "collective_index": 2}, {"kind": "straggler", "collective_index": 3, "slowdown": 1.5}, {"kind": "rank_loss", "collective_index": 10}]}
dead-code:
	rm -rf $(DEAD_DIR) && mkdir -p $(DEAD_DIR)
	printf '%s\n' '$(DEAD_PLAN)' > $(DEAD_DIR)/plan.json
	for ex in examples/*.py; do $(DEAD) $$ex > /dev/null || exit 1; done
	$(DEAD) -m repro.cli zipf --tokens 20000 > /dev/null
	$(DEAD) -m repro.cli train --gpus 2 --steps 3 --corpus-tokens 6000 > /dev/null
	$(DEAD) -m repro.cli train --model char --gpus 2 --steps 3 --corpus-tokens 40000 --fp16 --overlap > /dev/null
	$(DEAD) -m repro.cli train --gpus 8 --steps 3 --corpus-tokens 6000 --mesh pipe=2,tensor=2,data=2 --wire-codec fp16+entropy --fused-reduce --sanitize --telemetry-dir $(DEAD_DIR)/tel > /dev/null
	$(DEAD) -m repro.cli train --gpus 4 --steps 4 --corpus-tokens 6000 --resilient --baseline --wire-codec auto --seed-strategy zipf_freq > /dev/null
	$(DEAD) -m repro.cli train --model char --gpus 4 --steps 4 --corpus-tokens 40000 --resilient > /dev/null
	$(DEAD) -m repro.cli train --gpus 4 --steps 4 --corpus-tokens 6000 --fault-plan $(DEAD_DIR)/plan.json --telemetry-dir $(DEAD_DIR)/tel-chaos > /dev/null
	$(DEAD) -m repro.cli train --gpus 8 --steps 3 --corpus-tokens 6000 --wire-codec fp16:65504 > /dev/null 2>&1; test $$? -eq 2
	$(DEAD) -m repro.cli trace $(DEAD_DIR)/tel > /dev/null
	for t in 3 4 5; do $(DEAD) -m repro.cli perf --table $$t > /dev/null || exit 1; done
	$(DEAD) -m repro.cli generate --steps 5 --length 10 > /dev/null
	$(DEAD) -m repro.cli example > /dev/null
	$(DEAD) -m repro.cli lint src/repro > /dev/null
	$(DEAD) -m repro.cli lint --list-rules > /dev/null
	$(DEAD) -m repro.cli serve-bench --requests 8 > /dev/null
	$(DEAD) -m repro.cli serve-bench --model char --requests 8 --slo 0.05 > /dev/null
	$(DEAD) -m repro.cli serve-bench --requests 8 --fault-plan $(DEAD_DIR)/plan.json --telemetry-dir $(DEAD_DIR)/tel-serve > /dev/null
	$(DEAD) -m repro.cli trace $(DEAD_DIR)/tel-serve > /dev/null
	for w in word_flat char_batched word_wire mesh_hybrid serve_burst; do \
		$(DEAD) benchmarks/e2e/run.py --workload $$w --smoke > /dev/null || exit 1; done
	for b in benchmarks/bench_*.py; do \
		REPRO_BENCH_FAST=1 $(DEAD) -m pytest -q -p no:cacheprovider $$b --benchmark-disable > /dev/null || exit 1; done
	PYTHONPATH=src $(PYTHON) tools/check_coverage.py --functions $(DEAD_DIR)/entered.log --max-dead $(DEAD_CEILING)

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

results: lint test bench
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build *.egg-info .pytest_benchmarks .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
