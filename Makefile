# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-chaos test-mesh test-telemetry test-serve lint verify-spmd bench bench-smoke bench-wire bench-serve bench-sim examples results clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Chaos suite: fault-plan replay, differential (faulted-vs-clean)
# equivalence over 5 fixed seeds, the resilience benchmark smoke, and a
# 90% line-coverage floor on the recovery loop (stdlib-only tracer).
test-chaos:
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		tests/cluster/test_chaos.py tests/train/test_resilience.py
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_resilience_overhead.py --benchmark-only
	PYTHONPATH=src $(PYTHON) tools/check_coverage.py \
		--target src/repro/train/resilience.py --min-percent 90 \
		tests/train/test_resilience.py

# Mesh suite (docs/MESH.md): device-mesh geometry + per-axis collective
# semantics, tensor/pipeline-parallel layer bit-exactness properties,
# the sharded data-axis gradient exchange, the switch-composition table
# (mesh x codec x overlap x fused x observers vs the flat reference),
# hybrid-mesh training + elastic shrink, the `train --mesh` CLI paths,
# and the tensor-parallel crossover benchmark with its wire-volume gates.
test-mesh:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/cluster/test_mesh.py tests/nn/test_parallel.py \
		tests/core/test_mesh_exchange.py \
		tests/train/test_mesh_training.py \
		tests/train/test_sync_composition.py
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/test_cli.py -k "TestTrainMesh"
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_ablation_tensor_parallel.py --benchmark-only

# Telemetry suite: registry/exporter semantics, merged-trace validity
# (per-rank pid/tid tracks, no negative or overlapping timestamps), the
# exporter-agreement CLI check, and the trace-accounting regressions.
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

# SPMD collective-matching verification (docs/SPMD_VERIFY.md): the
# static REPRO010-012 taint pass over the library and benchmarks, a
# dynamic fault-plan replay under the LockstepVerifier, and the unit
# suites for both layers.
verify-spmd:
	PYTHONPATH=src $(PYTHON) -m repro.cli verify-spmd src/repro benchmarks
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/analysis/test_spmd_rules.py tests/cluster/test_lockstep.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fast overlap/straggler ablations with their timeline-vs-analytic
# acceptance gates, plus the hierarchical (three ledger events == the
# analytic model) and bucketing (latency/cast batching) ablations —
# cheap enough to run on every CI push.
bench-smoke:
	PYTHONPATH=src REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_ablation_overlap.py \
		benchmarks/bench_ablation_stragglers.py \
		benchmarks/bench_ablation_hierarchical.py \
		benchmarks/bench_ablation_bucketing.py --benchmark-only

# Wire-compression smoke: measured byte-reduction + pipeline-model +
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

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

results: lint test bench
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build *.egg-info .pytest_benchmarks .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
