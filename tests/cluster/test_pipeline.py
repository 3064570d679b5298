"""Tests for the 1F1B pipeline schedule."""

import pytest

from repro.cluster import Communicator, hybrid_mesh
from repro.cluster.pipeline import PipelineSchedule


class TestPipelineSchedule:
    def test_analytic_formulas(self):
        s = PipelineSchedule(4, 8, fwd_time_s=0.002, bwd_time_s=0.004)
        assert s.makespan_s == pytest.approx((8 + 3) * 0.006)

    def test_single_stage_has_no_bubble(self):
        s = PipelineSchedule(1, 8, 0.001, 0.002)
        assert s.makespan_s == pytest.approx(8 * 0.003)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineSchedule(0, 4, 0.1, 0.1)
        with pytest.raises(ValueError):
            PipelineSchedule(2, 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            PipelineSchedule(2, 4, -0.1, 0.1)

    def test_record_charges_timeline_and_transfers(self):
        world = 4
        mc = Communicator(
            world, track_memory=False, mesh=hybrid_mesh("pipe=2,tensor=1,data=2", world)
        )
        s = PipelineSchedule(2, 4, 0.001, 0.002)
        makespan = s.record(mc, activation_bytes=1 << 20)
        assert makespan == pytest.approx(s.makespan_s)
        transfers = [
            e for e in mc.ledger.events if e.op == "transfer"
        ]
        # (p - 1) boundaries x m micro-batches.
        assert len(transfers) == 4

    def test_record_rejects_stage_mismatch(self):
        mc = Communicator(
            4, track_memory=False, mesh=hybrid_mesh("pipe=2,tensor=1,data=2", 4)
        )
        with pytest.raises(ValueError, match="stage"):
            PipelineSchedule(4, 4, 0.001, 0.002).record(mc)
