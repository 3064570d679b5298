"""Positive/negative cases for each REPRO rule.

Every case pairs a minimal violating snippet with its minimally-fixed
twin, so a rule that stops firing (or starts over-firing) fails here
before it silently stops guarding src/repro.
"""

from repro.analysis import LintEngine, default_rules


def ids_for(src: str, path: str = "mod.py", only: str | None = None):
    rules = default_rules(None if only is None else [only])
    return [f.rule_id for f in LintEngine(rules).lint_source(src, path)]


class TestRepro001BareRng:
    def test_global_state_call_flagged(self):
        assert ids_for("x = np.random.rand(3)\n", only="REPRO001") == ["REPRO001"]

    def test_global_seed_flagged(self):
        assert ids_for("np.random.seed(0)\n", only="REPRO001") == ["REPRO001"]

    def test_numpy_spelling_flagged(self):
        assert ids_for("x = numpy.random.randn()\n", only="REPRO001") == [
            "REPRO001"
        ]

    def test_from_import_flagged(self):
        assert ids_for("from numpy.random import rand\n", only="REPRO001") == [
            "REPRO001"
        ]

    def test_explicit_generator_allowed(self):
        clean = (
            "rng = np.random.default_rng(0)\n"
            "ss = np.random.SeedSequence(1)\n"
            "g = np.random.Generator(np.random.PCG64(2))\n"
        )
        assert ids_for(clean, only="REPRO001") == []


class TestRepro002Float64Comm:
    def test_astype_into_collective_flagged(self):
        src = "comm.allreduce([g.astype(np.float64)], tag='t')\n"
        assert ids_for(src, only="REPRO002") == ["REPRO002"]

    def test_dtype_kwarg_into_encode_flagged(self):
        src = "codec.encode(np.zeros(4, dtype=np.float64))\n"
        assert ids_for(src, only="REPRO002") == ["REPRO002"]

    def test_float32_payload_allowed(self):
        src = "comm.allreduce([g.astype(np.float32)], tag='t')\n"
        assert ids_for(src, only="REPRO002") == []

    def test_float64_elsewhere_allowed(self):
        # Accumulating in float64 *outside* the comm path is the
        # optimizer's prerogative (grad-norm accumulation).
        src = "sq = (g.astype(np.float64) ** 2).sum()\n"
        assert ids_for(src, only="REPRO002") == []


class TestRepro003ScopeAttribution:
    def test_unscoped_collective_in_orchestration_flagged(self):
        src = "def step(comm, xs):\n    comm.allreduce(xs)\n"
        assert ids_for(src, "train/loop.py", only="REPRO003") == ["REPRO003"]

    def test_scoped_collective_allowed(self):
        src = (
            "def step(comm, led, xs):\n"
            "    with led.scope('sync'):\n"
            "        comm.allreduce(xs)\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO003") == []

    def test_scope_covers_nested_functions_lexically(self):
        src = (
            "def step(comm, led, xs):\n"
            "    with led.scope('sync'):\n"
            "        if xs:\n"
            "            comm.reduce_scatter(xs)\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO003") == []

    def test_comm_substrate_exempt(self):
        src = "def helper(comm, xs):\n    return comm.allgather(xs)\n"
        assert ids_for(src, "core/unique.py", only="REPRO003") == []
        assert ids_for(src, "cluster/hierarchical.py", only="REPRO003") == []
        assert ids_for(src, "nn/layer.py", only="REPRO003") == []

    def test_axis_addressed_and_scheduled_forms_recognised(self):
        for call in (
            'comm.axis("data").allreduce(xs)',
            'comm.axis("pipe").transfer(4096)',
            'comm.issue_scheduled("hop", time_s=0.0, wire_bytes_per_rank=8).wait()',
        ):
            src = f"def step(comm, xs):\n    {call}\n"
            assert ids_for(src, "train/loop.py", only="REPRO003") == [
                "REPRO003"
            ], call


class TestRepro004DtypeDefaults:
    def test_float64_dtype_default_in_nn_flagged(self):
        src = "def f(dtype: np.dtype = np.float64):\n    pass\n"
        assert ids_for(src, "nn/layer.py", only="REPRO004") == ["REPRO004"]

    def test_kwonly_dtype_default_flagged(self):
        src = "def f(*, dtype=np.float32):\n    pass\n"
        assert ids_for(src, "nn/layer.py", only="REPRO004") == ["REPRO004"]

    def test_constant_reference_allowed(self):
        src = "def f(dtype: np.dtype = DTYPE):\n    pass\n"
        assert ids_for(src, "nn/layer.py", only="REPRO004") == []

    def test_mutable_default_flagged(self):
        src = "def f(layers=[]):\n    pass\n"
        assert ids_for(src, "nn/layer.py", only="REPRO004") == ["REPRO004"]

    def test_outside_nn_not_this_rules_business(self):
        src = "def f(dtype: np.dtype = np.float64):\n    pass\n"
        assert ids_for(src, "train/config.py", only="REPRO004") == []


class TestRepro005Exports:
    def test_missing_all_flagged(self):
        assert ids_for("def f():\n    pass\n", only="REPRO005") == ["REPRO005"]

    def test_stale_entry_flagged(self):
        src = "__all__ = ['f', 'ghost']\n\ndef f():\n    pass\n"
        assert ids_for(src, only="REPRO005") == ["REPRO005"]

    def test_imported_and_assigned_names_count_as_bound(self):
        src = (
            "from os import path\n"
            "import sys\n"
            "X = 1\n"
            "__all__ = ['path', 'sys', 'X', 'f']\n"
            "def f():\n    pass\n"
        )
        assert ids_for(src, only="REPRO005") == []

    def test_dynamic_all_is_not_second_guessed(self):
        src = "__all__ = sorted(globals())\n"
        assert ids_for(src, only="REPRO005") == []


class TestRepro006Print:
    def test_print_in_library_flagged(self):
        src = "__all__ = []\ndef f():\n    print('dbg')\n"
        assert ids_for(src, "perf/model.py", only="REPRO006") == ["REPRO006"]

    def test_cli_module_exempt(self):
        src = "__all__ = []\nprint('table row')\n"
        assert ids_for(src, "cli.py", only="REPRO006") == []


class TestRepro007DroppedHandle:
    def test_bare_expression_issue_flagged(self):
        src = "def f(comm, xs):\n    comm.iallreduce(xs)\n"
        assert ids_for(src, only="REPRO007") == ["REPRO007"]

    def test_assigned_but_never_used_flagged(self):
        src = "def f(comm, xs):\n    h = comm.iallgather(xs)\n"
        assert ids_for(src, only="REPRO007") == ["REPRO007"]

    def test_module_level_drop_flagged(self):
        src = "h = comm.ireduce_scatter(xs)\n"
        assert ids_for(src, only="REPRO007") == ["REPRO007"]

    def test_axis_addressed_and_scheduled_drops_flagged(self):
        src = 'def f(comm, xs):\n    comm.axis("data").iallreduce(xs)\n'
        assert ids_for(src, only="REPRO007") == ["REPRO007"]
        src = (
            "def f(comm):\n"
            '    h = comm.issue_scheduled("hop", time_s=0.0, '
            "wire_bytes_per_rank=8)\n"
        )
        assert ids_for(src, only="REPRO007") == ["REPRO007"]

    def test_waited_handle_allowed(self):
        src = "def f(comm, xs):\n    h = comm.iallreduce(xs)\n    h.wait()\n"
        assert ids_for(src, only="REPRO007") == []

    def test_inline_wait_allowed(self):
        src = "def f(comm, xs):\n    return comm.iallreduce(xs).wait()\n"
        assert ids_for(src, only="REPRO007") == []

    def test_returned_handle_allowed(self):
        """Returning the handle hands completion duty to the caller —
        the issue/wait split the whole refactor exists to allow."""
        src = "def issue(comm, xs):\n    return comm.iallreduce(xs)\n"
        assert ids_for(src, only="REPRO007") == []

    def test_appended_handle_allowed(self):
        src = (
            "def f(comm, buckets):\n"
            "    handles = []\n"
            "    for b in buckets:\n"
            "        h = comm.iallreduce(b)\n"
            "        handles.append(h)\n"
            "    return handles\n"
        )
        assert ids_for(src, only="REPRO007") == []

    def test_closure_use_counts_as_use(self):
        src = (
            "def f(comm, xs):\n"
            "    h = comm.iallreduce(xs)\n"
            "    def finish():\n"
            "        return h.wait()\n"
            "    return finish\n"
        )
        assert ids_for(src, only="REPRO007") == []

    def test_drop_inside_branch_flagged(self):
        src = (
            "def f(comm, xs, fast):\n"
            "    if fast:\n"
            "        comm.ireduce_scatter(xs)\n"
        )
        assert ids_for(src, only="REPRO007") == ["REPRO007"]

    def test_high_level_issue_helpers_covered(self):
        src = "def f(comm, grads):\n    iunique_exchange(comm, grads)\n"
        assert ids_for(src, only="REPRO007") == ["REPRO007"]
        src = "def f(s, comm, grads):\n    s.iexchange(comm, grads)\n"
        assert ids_for(src, only="REPRO007") == ["REPRO007"]

    def test_blocking_collectives_not_this_rules_business(self):
        src = "def f(comm, xs):\n    comm.allreduce(xs)\n"
        assert ids_for(src, only="REPRO007") == []


class TestRepro008UncodedPayload:
    def test_raw_payload_in_orchestration_flagged(self):
        src = "def f(comm, grads):\n    h = comm.iallgather(grads)\n    h.wait()\n"
        assert ids_for(src, "train/loop.py", only="REPRO008") == ["REPRO008"]

    def test_axis_addressed_payload_flagged_pre_costed_steps_exempt(self):
        src = (
            "def f(comm, grads):\n"
            '    h = comm.axis("data").iallgather(grads)\n'
            "    h.wait()\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO008") == ["REPRO008"]
        src = 'def f(comm, n):\n    comm.axis("pipe").transfer(n)\n'
        assert ids_for(src, "train/loop.py", only="REPRO008") == []

    def test_bare_name_entry_point_flagged(self):
        src = "def f(comm, grads):\n    h = iexchange(comm, grads)\n    h.wait()\n"
        assert ids_for(src, "train/loop.py", only="REPRO008") == ["REPRO008"]

    def test_wire_policy_kwarg_allowed(self):
        src = (
            "def f(comm, grads, wire):\n"
            "    h = iunique_exchange(comm, grads, wire=wire)\n"
            "    h.wait()\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO008") == []

    def test_codec_kwarg_allowed(self):
        src = "def f(comm, g, c):\n    h = comm.iallreduce(g, codec=c)\n    h.wait()\n"
        assert ids_for(src, "train/loop.py", only="REPRO008") == []

    def test_pre_encoded_with_payload_bytes_allowed(self):
        src = (
            "def f(comm, enc, g):\n"
            "    h = comm.iallreduce(enc, tag='t', payload_bytes=g.nbytes)\n"
            "    h.wait()\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO008") == []

    def test_inline_encode_allowed(self):
        src = (
            "def f(comm, c, grads):\n"
            "    h = comm.iallreduce([c.encode(g) for g in grads], tag='t')\n"
            "    h.wait()\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO008") == []

    def test_codec_suggestive_identifier_allowed(self):
        src = (
            "def f(comm, encoded_frames):\n"
            "    h = comm.iallgather(encoded_frames, tag='t')\n"
            "    h.wait()\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO008") == []

    def test_iencoded_allgather_is_the_codec_path(self):
        src = (
            "def f(comm, arrays, c):\n"
            "    h = iencoded_allgather(comm, arrays, c)\n"
            "    h.wait()\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO008") == []

    def test_comm_substrate_exempt(self):
        src = "def f(comm, grads):\n    h = comm.iallgather(grads)\n    h.wait()\n"
        for exempt in ("cluster/communicator.py", "core/unique.py",
                       "analysis/sanitizer.py"):
            assert ids_for(src, exempt, only="REPRO008") == []


class TestRepro009TelemetryBypass:
    def test_stdout_write_flagged(self):
        src = "import sys\n\ndef f():\n    sys.stdout.write('loss=1')\n"
        assert ids_for(src, "train/loop.py", only="REPRO009") == ["REPRO009"]

    def test_stderr_write_flagged(self):
        src = "import sys\n\ndef f():\n    sys.stderr.write('oops')\n"
        assert ids_for(src, "train/loop.py", only="REPRO009") == ["REPRO009"]

    def test_series_internals_flagged(self):
        src = "def f(counter):\n    return counter._series\n"
        assert ids_for(src, "perf/model.py", only="REPRO009") == ["REPRO009"]

    def test_bare_metric_ctor_flagged(self):
        src = (
            "from repro.telemetry import Counter\n"
            "\n"
            "def f():\n"
            "    return Counter('x_total', 'help')\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO009") == ["REPRO009"]

    def test_aliased_metric_ctor_flagged(self):
        src = (
            "from repro.telemetry import Gauge as G\n"
            "\n"
            "def f():\n"
            "    return G('x', 'help')\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO009") == ["REPRO009"]

    def test_attribute_chain_ctor_flagged(self):
        src = (
            "from repro import telemetry\n"
            "\n"
            "def f():\n"
            "    return telemetry.Histogram('x', 'help')\n"
        )
        assert ids_for(src, "train/loop.py", only="REPRO009") == ["REPRO009"]

    def test_registry_minted_metric_allowed(self):
        src = "def f(registry):\n    registry.counter('x_total', 'help').inc()\n"
        assert ids_for(src, "train/loop.py", only="REPRO009") == []

    def test_collections_counter_not_confused(self):
        src = "from collections import Counter\n\ndef f(xs):\n    return Counter(xs)\n"
        assert ids_for(src, "data/text.py", only="REPRO009") == []

    def test_value_accessor_allowed(self):
        src = "def f(counter):\n    return counter.value()\n"
        assert ids_for(src, "perf/model.py", only="REPRO009") == []

    def test_telemetry_package_and_cli_exempt(self):
        src = "def f(metric):\n    return metric._series\n"
        for exempt in ("telemetry/registry.py", "telemetry/exporters.py",
                       "cli.py"):
            assert ids_for(src, exempt, only="REPRO009") == []
