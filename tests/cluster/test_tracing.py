"""Tests for the Timeline's cost scopes and totals, and the CostLedger view."""

import pytest

from repro.cluster.timeline import LedgerScopeError, Timeline
from repro.cluster.tracing import CostLedger


def record(tl, op, wire, time_s, tag="", payload=None):
    """One collective of ``op`` on ``tl``: ``wire`` bytes per rank."""
    return tl.schedule_collective(
        time_s, tag, op=op, wire_bytes_per_rank=wire,
        payload_bytes_per_rank=payload,
    )


class TestRecording:
    def test_totals_accumulate(self):
        tl = Timeline(4)
        record(tl, "allreduce", 100, 0.5)
        record(tl, "allgather", 300, 1.5)
        ledger = CostLedger(tl)
        assert ledger.total_wire_bytes_per_rank == 400
        assert ledger.total_time_s == pytest.approx(2.0)

    def test_by_op_views(self):
        tl = Timeline(2)
        record(tl, "allreduce", 10, 0.1)
        record(tl, "allreduce", 20, 0.2)
        record(tl, "allgather", 5, 0.05)
        ledger = CostLedger(tl)
        assert ledger.bytes_by_op() == {"allreduce": 30, "allgather": 5}
        assert ledger.time_by_op()["allreduce"] == pytest.approx(0.3)

    def test_negative_values_rejected(self):
        tl = Timeline(1)
        with pytest.raises(ValueError):
            record(tl, "x", -1, 0.0)
        with pytest.raises(ValueError):
            record(tl, "x", 0, -0.1)
        with pytest.raises(ValueError):
            record(tl, "x", 0, 0.0, payload=-1)

    def test_rejected_record_leaves_totals_unchanged(self):
        tl = Timeline(2)
        record(tl, "allreduce", 10, 0.5)
        ledger = CostLedger(tl)
        before = (ledger.snapshot(), ledger.bytes_by_op(), tl.makespan)
        with pytest.raises(ValueError):
            record(tl, "allreduce", -1, 0.5)
        with pytest.raises(ValueError):
            record(tl, "allreduce", 10, 0.5, payload=-3)
        assert (ledger.snapshot(), ledger.bytes_by_op(), tl.makespan) == before
        assert len(ledger.events) == 1

    def test_time_s_is_stored_as_given(self):
        """The record keeps the caller's time, not ``end - start``."""
        tl = Timeline(1)
        tl.record_compute(0, 0.1)
        event = record(tl, "allreduce", 8, 0.2)
        assert event.time_s == 0.2
        assert CostLedger(tl).total_time_s == 0.2

    def test_compression_factor_filters_by_tag(self):
        tl = Timeline(2)
        record(tl, "allgather", 10, 0.1, tag="emb:indices", payload=40)
        record(tl, "allreduce", 50, 0.1, tag="dense")
        ledger = CostLedger(tl)
        assert ledger.compression_factor(":indices") == 4.0
        assert ledger.compression_factor() == 90 / 60
        assert ledger.compression_factor("absent") == 1.0

    def test_replay_records_are_named_by_their_tag(self):
        tl = Timeline(2)
        tl.schedule_collective(0.5, name="bucket0")
        tl.schedule_collective(0.5)
        record(tl, "allreduce", 8, 0.5)
        assert [e.name for e in tl.collectives] == [
            "bucket0", "collective", "allreduce:",
        ]


class TestScopes:
    def test_nested_scope_names(self):
        tl = Timeline(2)
        with tl.scope("step"):
            with tl.scope("embedding"):
                record(tl, "allgather", 7, 0.0)
        assert CostLedger(tl).events[0].scope == "step/embedding"

    def test_bytes_by_scope(self):
        tl = Timeline(2)
        with tl.scope("dense"):
            record(tl, "allreduce", 100, 0.1)
        with tl.scope("sparse"):
            record(tl, "allreduce", 7, 0.1)
        by_scope = CostLedger(tl).bytes_by_scope()
        assert by_scope["dense"] == 100
        assert by_scope["sparse"] == 7

    def test_bytes_by_scope_splits_a_pack_exactly(self):
        """A lone collective is credited to its scope; a packed one to
        the scopes its members would have had alone, pro rata, with the
        shares summing to the pack's bytes."""
        tl = Timeline(2)
        with tl.scope("sync"):
            with tl.scope("a"):
                record(tl, "allgather", 5, 0.1)
            with tl.scope("a+b+c"):
                tl.schedule_collective(
                    0.1, "t", op="allreduce", wire_bytes_per_rank=100,
                    members=[("a", 1), ("b", 1), ("c", 1)],
                )
        assert CostLedger(tl).bytes_by_scope() == {
            "sync/a": 5 + 33, "sync/b": 33, "sync/c": 34,
        }

    def test_scope_restored_after_exception(self):
        tl = Timeline(1)
        with pytest.raises(RuntimeError):
            with tl.scope("x"):
                raise RuntimeError
        assert tl.current_scope == ""

    def test_slash_in_scope_name_rejected(self):
        tl = Timeline(1)
        with pytest.raises(LedgerScopeError):
            with tl.scope("a/b"):
                pass
        assert tl.current_scope == ""


class TestScopeBalance:
    def test_pop_on_empty_raises(self):
        tl = Timeline(1)
        with pytest.raises(LedgerScopeError, match="empty scope stack"):
            tl.pop_scope()

    def test_mismatched_pop_raises_with_both_names(self):
        tl = Timeline(1)
        tl.push_scope("outer")
        tl.push_scope("inner")
        with pytest.raises(LedgerScopeError, match="'outer'.*'inner'"):
            tl.pop_scope(expected="outer")
        # the stack is left untouched by the failed pop
        assert tl.current_scope == "outer/inner"

    def test_nested_push_pop_balanced(self):
        tl = Timeline(1)
        tl.push_scope("a")
        tl.push_scope("b")
        assert tl.pop_scope(expected="b") == "b"
        assert tl.pop_scope(expected="a") == "a"
        tl.assert_balanced()

    def test_assert_balanced_flags_open_scope(self):
        tl = Timeline(1)
        tl.push_scope("leaked")
        with pytest.raises(LedgerScopeError, match="'leaked' still open"):
            tl.assert_balanced()

    def test_double_exit_detected(self):
        """A scope context that exits twice is a pop-on-empty, not an
        AssertionError (asserts vanish under ``python -O``)."""
        tl = Timeline(1)
        cm = tl.scope("once")
        cm.__enter__()
        cm.__exit__(None, None, None)
        with pytest.raises(LedgerScopeError):
            cm.__exit__(None, None, None)

    def test_slash_in_push_scope_rejected(self):
        tl = Timeline(1)
        with pytest.raises(LedgerScopeError):
            tl.push_scope("a/b")


class TestSnapshots:
    def test_delta_since(self):
        tl = Timeline(1)
        ledger = CostLedger(tl)
        record(tl, "a", 10, 1.0)
        snap = ledger.snapshot()
        record(tl, "b", 5, 0.25)
        delta = ledger.delta_since(snap)
        assert delta.n_events == 1
        assert delta.wire_bytes_per_rank == 5
        assert delta.time_s == pytest.approx(0.25)

    def test_snapshot_does_not_scan_the_journal(self):
        """The per-step queries read running totals, never the journal."""
        tl = Timeline(2)
        ledger = CostLedger(tl)
        record(tl, "a", 10, 1.0)
        tl._journal = None  # any scan would now raise
        snap = ledger.snapshot()
        assert snap.n_events == 1 and snap.wire_bytes_per_rank == 10
        assert ledger.delta_since(snap).n_events == 0
        assert ledger.total_time_s == 1.0
        assert ledger.bytes_by_scope() == {"": 10}
