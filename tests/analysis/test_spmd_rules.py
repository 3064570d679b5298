"""Tests for the SPMD rank-divergence rules (REPRO010–REPRO012).

Each "mutant" below is a distilled version of a real divergence bug: a
collective issued under rank-dependent control flow (deadlock), a
rank-dependent tag/shape/dtype fed into a collective (mismatched
signature), and a payload buffer written between async issue and
``wait()`` (in-flight race).  The benign cases pin down the idioms the
taint analysis must *not* flag — above all the simulator's ubiquitous
``for rank in range(world)`` loop, which is how one process plays every
rank and is the opposite of divergence.
"""

from repro.analysis import LintEngine, default_rules
from repro.analysis.spmd import ModuleTaint, is_rank_like

SPMD_RULES = ["REPRO010", "REPRO011", "REPRO012"]


def lint(src, path="mutant.py"):
    engine = LintEngine(default_rules(SPMD_RULES))
    return engine.lint_source(src, path)


def ids(src, path="mutant.py"):
    return [f.rule_id for f in lint(src, path)]


class TestRankDivergentControlFlow:
    def test_collective_under_rank_branch(self):
        src = (
            "def step(comm, rank, grads):\n"
            "    if rank == 0:\n"
            "        comm.allreduce(grads)\n"
        )
        findings = lint(src)
        assert [f.rule_id for f in findings] == ["REPRO010"]
        assert findings[0].line == 3
        assert "rank-divergent" in findings[0].message
        assert "line 2" in findings[0].message  # names the guard

    def test_axis_addressed_collective_under_rank_branch(self):
        for call in (
            'comm.axis("tensor").allreduce(grads)',
            'comm.axis("pipe").transfer(4096)',
        ):
            src = (
                "def step(comm, rank, grads):\n"
                "    if rank == 0:\n"
                f"        {call}\n"
            )
            assert [f.rule_id for f in lint(src)] == ["REPRO010"], call

    def test_early_exit_before_a_collective(self):
        src = (
            "def step(comm, rank, grads):\n"
            "    if rank == 0:\n"
            "        return\n"
            "    comm.allreduce(grads)\n"
        )
        findings = lint(src)
        assert [f.rule_id for f in findings] == ["REPRO010"]
        assert findings[0].line == 3  # the early exit, not the collective

    def test_wait_under_rank_branch(self):
        src = (
            "def step(comm, my_rank, handle):\n"
            "    if my_rank > 0:\n"
            "        handle.wait()\n"
        )
        assert ids(src) == ["REPRO010"]

    def test_interprocedural_taint_through_helper_return(self):
        src = (
            "def shard_offset(comm):\n"
            "    return comm.rank * 2\n"
            "\n"
            "\n"
            "def sync(comm, grads):\n"
            "    off = shard_offset(comm)\n"
            "    if off > 0:\n"
            "        comm.allreduce(grads)\n"
        )
        findings = lint(src)
        assert [f.rule_id for f in findings] == ["REPRO010"]
        assert findings[0].line == 8

    def test_interprocedural_taint_through_method_call(self):
        src = (
            "class Worker:\n"
            "    def scale(self):\n"
            "        return self.rank + 1\n"
            "\n"
            "    def push(self, grads):\n"
            "        s = self.scale()\n"
            "        while s > 1:\n"
            "            self.comm.allreduce(grads)\n"
            "            s -= 1\n"
        )
        assert ids(src) == ["REPRO010"]

    def test_fault_plan_events_are_taint_sources(self):
        src = (
            "def replay(comm, fault_plan, grads):\n"
            "    for ev in fault_plan.events:\n"
            "        if ev:\n"
            "            comm.wait_all()\n"
        )
        assert ids(src) == ["REPRO010"]

    def test_loop_over_ranks_is_benign(self):
        # THE simulator idiom: one process plays every rank in turn.
        src = (
            "def step(comm, world, grads):\n"
            "    for rank in range(world):\n"
            "        grads[rank] *= 1.0 / world\n"
            "    comm.allreduce(grads)\n"
        )
        assert ids(src) == []

    def test_uniform_branch_is_benign(self):
        src = (
            "def step(comm, use_unique, grads):\n"
            "    if use_unique:\n"
            "        comm.allreduce(grads)\n"
        )
        assert ids(src) == []

    def test_rank_branch_without_comm_is_benign(self):
        # Divergent control flow is only a bug when the scope (or its
        # class) touches collectives/waits — pure logging is fine.
        src = (
            "def log_once(rank, msg):\n"
            "    if rank == 0:\n"
            "        record(msg)\n"
        )
        assert ids(src) == []


class TestTaintedCollectiveSignature:
    def test_rank_dependent_tag(self):
        src = (
            "def sync(comm, rank, grads):\n"
            '    tag = "left" if rank % 2 == 0 else "right"\n'
            "    comm.allreduce(grads, tag=tag)\n"
        )
        findings = lint(src)
        assert [f.rule_id for f in findings] == ["REPRO011"]
        assert "tag" in findings[0].message

    def test_rank_dependent_shape_ctor_in_payload(self):
        src = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def sync(comm, rank):\n"
            "    n = rank + 1\n"
            "    comm.allreduce([np.zeros(n)])\n"
        )
        assert ids(src) == ["REPRO011"]

    def test_uniform_tag_is_benign(self):
        src = (
            "def sync(comm, grads, layer):\n"
            '    comm.allreduce(grads, tag=f"grads/{layer}")\n'
        )
        assert ids(src) == []


class TestInFlightBufferMutation:
    def test_write_between_issue_and_wait(self):
        src = (
            "def overlap(comm, grads):\n"
            "    h = comm.iallreduce(grads)\n"
            "    grads[0] += 1.0\n"
            "    h.wait()\n"
        )
        findings = lint(src)
        assert [f.rule_id for f in findings] == ["REPRO012"]
        assert findings[0].line == 3
        assert "iallreduce" in findings[0].message

    def test_method_mutation_between_issue_and_wait(self):
        src = (
            "def overlap(comm, grads, buf):\n"
            "    h = comm.iallgather([buf])\n"
            "    buf.fill(0.0)\n"
            "    h.wait()\n"
        )
        assert ids(src) == ["REPRO012"]

    def test_write_after_wait_is_benign(self):
        src = (
            "def overlap(comm, grads):\n"
            "    h = comm.iallreduce(grads)\n"
            "    h.wait()\n"
            "    grads[0] += 1.0\n"
        )
        assert ids(src) == []

    def test_wait_all_closes_every_handle(self):
        src = (
            "def overlap(comm, grads, acts):\n"
            "    h1 = comm.iallreduce(grads)\n"
            "    h2 = comm.iallgather(acts)\n"
            "    comm.wait_all()\n"
            "    grads[0] = 0.0\n"
            "    acts[0] = 0.0\n"
        )
        assert ids(src) == []

    def test_unrelated_buffer_write_is_benign(self):
        src = (
            "def overlap(comm, grads, scratch):\n"
            "    h = comm.iallreduce(grads)\n"
            "    scratch[0] = 1.0\n"
            "    h.wait()\n"
        )
        assert ids(src) == []


class TestSuppression:
    DIVERGENT = (
        "def step(comm, rank, grads):\n"
        "    if rank == 0:\n"
        "        comm.allreduce(grads)\n"
    )

    def test_marker_on_finding_line(self):
        src = self.DIVERGENT.replace(
            "comm.allreduce(grads)",
            "comm.allreduce(grads)  # spmd-ok: distilled test scenario",
        )
        assert ids(src) == []

    def test_marker_on_guard_line(self):
        src = self.DIVERGENT.replace(
            "if rank == 0:",
            "if rank == 0:  # spmd-ok: demo of deliberate divergence",
        )
        assert ids(src) == []

    def test_marker_on_def_line(self):
        src = self.DIVERGENT.replace(
            "def step(comm, rank, grads):",
            "def step(comm, rank, grads):  # spmd-ok: whole-scope waiver",
        )
        assert ids(src) == []

    def test_bare_marker_without_reason_still_counts(self):
        # The regex only requires the marker token; the reason is a
        # documentation convention enforced by review, not the parser.
        src = self.DIVERGENT.replace(
            "if rank == 0:", "if rank == 0:  # spmd-ok"
        )
        assert ids(src) == []

    def test_noqa_also_suppresses(self):
        src = self.DIVERGENT.replace(
            "comm.allreduce(grads)",
            "comm.allreduce(grads)  # noqa: REPRO010",
        )
        assert ids(src) == []

    def test_marker_elsewhere_does_not_suppress(self):
        src = "# spmd-ok: stray comment far from the finding\n" + self.DIVERGENT
        assert ids(src) == ["REPRO010"]

    def test_analysis_paths_are_exempt(self):
        # The analysis package manipulates rank identifiers as *data*
        # (it is the thing doing the tainting), so it is excluded.
        assert ids(self.DIVERGENT, "src/repro/analysis/spmd/taint.py") == []


class TestTaintPrimitives:
    def test_rank_like_identifier_rules(self):
        assert is_rank_like("rank")
        assert is_rank_like("my_rank")
        assert is_rank_like("failed_rank")
        assert not is_rank_like("world")
        assert not is_rank_like("bytes_per_rank")
        assert not is_rank_like("rank_order")

    def test_comprehension_binding_shadows_taint(self):
        import ast

        src = (
            "def f(comm, rank, world):\n"
            "    shards = [rank * 2 for rank in range(world)]\n"
            "    return shards\n"
        )
        tree = ast.parse(src)
        taint = ModuleTaint(tree)
        fn = tree.body[0]
        scope = next(
            s for s in taint.graph.scopes if s.node is fn
        )
        comp = fn.body[0].value
        assert not taint.is_tainted(comp, scope)


class TestSelfAnalysis:
    def test_whole_repo_passes_the_spmd_rules(self):
        # The acceptance gate: src, benchmarks, tools, and the test
        # suite itself are clean under REPRO010-012, modulo the two
        # documented `# spmd-ok` sites (chaos injection and supervisor
        # rank validation) and the deliberate races in the sanitizer's
        # in-flight mutation tests.
        engine = LintEngine(default_rules(SPMD_RULES))
        findings = engine.lint_paths(["src", "benchmarks", "tools", "tests"])
        assert findings == [], "\n".join(f.render() for f in findings)
