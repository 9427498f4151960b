"""Systolic controller (LsmaEngine) timing tests."""

import math

import pytest

from repro.config import DataType, SmaConfig
from repro.errors import SimulationError
from repro.sma.controller import SystolicControllerModel
from repro.systolic.dataflow import Dataflow


@pytest.fixture
def controller():
    return SystolicControllerModel(SmaConfig(units_per_sm=3))


class TestIssue:
    def test_accepts_idle_unit(self, controller):
        outcome = controller.issue(0, 128, now=0.0)
        assert outcome.accepted
        assert outcome.busy_until > 0

    def test_rejects_busy_unit(self, controller):
        controller.issue(0, 128, now=0.0)
        assert not controller.issue(0, 128, now=1.0).accepted

    def test_other_units_independent(self, controller):
        controller.issue(0, 128, now=0.0)
        assert controller.issue(1, 128, now=0.0).accepted
        assert controller.issue(2, 128, now=0.0).accepted

    def test_busy_until_scales_with_stream(self, controller):
        short = controller.issue(0, 64, now=0.0).busy_until
        controller.reset()
        long = controller.issue(0, 256, now=0.0).busy_until
        assert long > short

    def test_streaming_rate_near_one_row_per_cycle(self, controller):
        """Semi-broadcast on reserved banks: ~1 cycle per A row."""
        outcome = controller.issue(0, 128, now=0.0)
        assert 128 <= outcome.busy_until <= 128 * 1.25

    def test_out_of_range_unit(self, controller):
        with pytest.raises(SimulationError):
            controller.issue(5, 128, now=0.0)

    def test_bad_extent(self, controller):
        with pytest.raises(SimulationError):
            controller.issue(0, 0, now=0.0)


class TestCounters:
    def test_mac_count_fp32(self):
        controller = SystolicControllerModel(SmaConfig(dtype=DataType.FP32))
        outcome = controller.issue(0, 128, now=0.0)
        assert outcome.counters.get("sma_macs") == 128 * 8 * 8
        assert outcome.counters.get("sma_macs_fp32") == 128 * 8 * 8

    def test_mac_count_fp16_wider_array(self):
        controller = SystolicControllerModel(SmaConfig(dtype=DataType.FP16))
        outcome = controller.issue(0, 128, now=0.0)
        assert outcome.counters.get("sma_macs") == 128 * 8 * 16

    def test_a_feed_smem_words(self, controller):
        outcome = controller.issue(0, 128, now=0.0)
        # A diagonal: K words per streamed row, plus the resident weights.
        assert outcome.counters.get("smem_read_words") == 128 * 8 + 64

    def test_c_rf_traffic_coalesced(self, controller):
        outcome = controller.issue(0, 128, now=0.0)
        # One warp-operand per 32 words: C in + C out.
        assert outcome.counters.get("rf_writes") == pytest.approx(128 * 8 / 32)


class TestDrainAndDataflow:
    def test_idle_at_after_drain(self, controller):
        outcome = controller.issue(0, 128, now=0.0)
        assert controller.idle_at(0.0) == outcome.busy_until
        assert controller.idle_at(outcome.busy_until + 1) == outcome.busy_until + 1

    def test_next_free_is_the_earliest_busy_unit(self, controller):
        assert controller.next_free(0.0) == math.inf
        long = controller.issue(0, 128, now=0.0).busy_until
        short = controller.issue(1, 16, now=0.0).busy_until
        assert short < long
        assert controller.next_free(0.0) == short
        assert not controller.issue(1, 16, now=short - 1.0).accepted
        assert controller.next_free(short) == long
        assert controller.next_free(long) == math.inf

    def test_reset_clears(self, controller):
        controller.issue(0, 128, now=0.0)
        controller.reset()
        assert controller.idle_at(0.0) == 0.0
        assert controller.lsma_count == 0

    def test_ws_dataflow_slower(self):
        sb = SystolicControllerModel(
            SmaConfig(), dataflow=Dataflow.SEMI_BROADCAST_WS
        )
        ws = SystolicControllerModel(
            SmaConfig(), dataflow=Dataflow.WEIGHT_STATIONARY
        )
        t_sb = sb.issue(0, 128, now=0.0).busy_until
        t_ws = ws.issue(0, 128, now=0.0).busy_until
        assert t_ws > t_sb

    def test_ws_dataflow_charges_lsu(self):
        ws = SystolicControllerModel(
            SmaConfig(), dataflow=Dataflow.WEIGHT_STATIONARY
        )
        sb = SystolicControllerModel(SmaConfig())
        assert ws.issue(0, 128, now=0.0).lsu_overhead_cycles > 0
        assert sb.issue(0, 128, now=0.0).lsu_overhead_cycles == 0

    def test_storage_claim(self, controller):
        assert controller.storage_bytes == 256
