"""Tests for the cost ledger."""

import pytest

from repro.cluster.tracing import CostLedger, LedgerScopeError


class TestRecording:
    def test_totals_accumulate(self):
        ledger = CostLedger()
        ledger.record("allreduce", 4, 100, 0.5)
        ledger.record("allgather", 4, 300, 1.5)
        assert ledger.total_wire_bytes_per_rank == 400
        assert ledger.total_time_s == pytest.approx(2.0)

    def test_by_op_views(self):
        ledger = CostLedger()
        ledger.record("allreduce", 2, 10, 0.1)
        ledger.record("allreduce", 2, 20, 0.2)
        ledger.record("allgather", 2, 5, 0.05)
        assert ledger.bytes_by_op() == {"allreduce": 30, "allgather": 5}
        assert ledger.time_by_op()["allreduce"] == pytest.approx(0.3)

    def test_negative_values_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.record("x", 1, -1, 0.0)
        with pytest.raises(ValueError):
            ledger.record("x", 1, 0, -0.1)


class TestScopes:
    def test_nested_scope_names(self):
        ledger = CostLedger()
        with ledger.scope("step"):
            with ledger.scope("embedding"):
                ledger.record("allgather", 2, 7, 0.0)
        assert ledger.events[0].scope == "step/embedding"

    def test_bytes_by_scope(self):
        ledger = CostLedger()
        with ledger.scope("dense"):
            ledger.record("allreduce", 2, 100, 0.1)
        with ledger.scope("sparse"):
            ledger.record("allreduce", 2, 7, 0.1)
        by_scope = ledger.bytes_by_scope()
        assert by_scope["dense"] == 100
        assert by_scope["sparse"] == 7

    def test_scope_restored_after_exception(self):
        ledger = CostLedger()
        with pytest.raises(RuntimeError):
            with ledger.scope("x"):
                raise RuntimeError
        assert ledger.current_scope == ""

    def test_slash_in_scope_name_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            with ledger.scope("a/b"):
                pass


class TestScopeBalance:
    def test_pop_on_empty_raises(self):
        ledger = CostLedger()
        with pytest.raises(LedgerScopeError, match="empty scope stack"):
            ledger.pop_scope()

    def test_mismatched_pop_raises_with_both_names(self):
        ledger = CostLedger()
        ledger.push_scope("outer")
        ledger.push_scope("inner")
        with pytest.raises(LedgerScopeError, match="'outer'.*'inner'"):
            ledger.pop_scope(expected="outer")
        # the stack is left untouched by the failed pop
        assert ledger.current_scope == "outer/inner"

    def test_nested_push_pop_balanced(self):
        ledger = CostLedger()
        ledger.push_scope("a")
        ledger.push_scope("b")
        assert ledger.pop_scope(expected="b") == "b"
        assert ledger.pop_scope(expected="a") == "a"
        ledger.assert_balanced()

    def test_assert_balanced_flags_open_scope(self):
        ledger = CostLedger()
        ledger.push_scope("leaked")
        with pytest.raises(LedgerScopeError, match="'leaked' still open"):
            ledger.assert_balanced()

    def test_double_exit_detected(self):
        """A scope context that exits twice is a pop-on-empty, not an
        AssertionError (asserts vanish under ``python -O``)."""
        ledger = CostLedger()
        cm = ledger.scope("once")
        cm.__enter__()
        cm.__exit__(None, None, None)
        with pytest.raises(LedgerScopeError):
            cm.__exit__(None, None, None)

    def test_slash_in_push_scope_rejected(self):
        ledger = CostLedger()
        with pytest.raises(LedgerScopeError):
            ledger.push_scope("a/b")


class TestSnapshots:
    def test_delta_since(self):
        ledger = CostLedger()
        ledger.record("a", 1, 10, 1.0)
        snap = ledger.snapshot()
        ledger.record("b", 1, 5, 0.25)
        delta = ledger.delta_since(snap)
        assert delta.n_events == 1
        assert delta.wire_bytes_per_rank == 5
        assert delta.time_s == pytest.approx(0.25)
