"""The dedicated systolic controller (paper Fig 5A, SS IV-B).

Once an ``LSMA`` is issued the controller runs the array asynchronously:
it holds an active mask for the PEs and address-generation units that feed
matrix A from the unit's 8 reserved shared-memory banks (uncoalesced
diagonal reads) and write matrix C rows to one register-file bank
(coalesced). This class implements :class:`repro.gpu.sm.LsmaEngine`: the
SM pipeline hands it LSMA instructions and waits on ``SMAWAIT``.

Timing comes from the dataflow analysis (`repro.systolic.dataflow`): the
semi-broadcast dataflow streams one A row per cycle with conflict-free
reserved banks, while the TPU-style weight-stationary dataflow must stage
its diagonal C drain through the general shared-memory banks, stretching
the stream and stealing LSU cycles from the double-buffer loads.
"""

from __future__ import annotations

import math

from functools import lru_cache

from repro.common.stats import CounterBag
from repro.config import DataType, SmaConfig
from repro.errors import SimulationError
from repro.gpu.sm import LsmaEngine, LsmaIssue
from repro.systolic.dataflow import Dataflow, analyze_dataflow_cost


@lru_cache(maxsize=512)
def _stream_cost(
    dataflow: Dataflow,
    stream_rows: int,
    array_k: int,
    array_n: int,
    a_banks: int,
    background_sts: float,
) -> tuple[float, float]:
    """(cycles, lsu_overhead) for one LSMA's streaming phase."""
    cost = analyze_dataflow_cost(
        dataflow,
        m_extent=stream_rows,
        k_extent=array_k,
        n_extent=array_n,
        a_banks=a_banks,
        background_sts_words_per_cycle=background_sts,
    )
    # The staged C traffic of the weight-stationary dataflow is already
    # folded into the contention factor by the bank analysis; the residual
    # LSU interference charged to the SIMD side is the fraction of staged
    # words that exceeds the A-feed's reserved banks.
    lsu_overhead = 0.0
    if dataflow is Dataflow.WEIGHT_STATIONARY:
        staged_words = 2.0 * stream_rows * array_n
        lsu_overhead = staged_words / 32.0 * 0.1
    return cost.total_cycles, lsu_overhead


class SystolicControllerModel(LsmaEngine):
    """Per-SM controller managing ``units_per_sm`` systolic arrays."""

    def __init__(
        self,
        config: SmaConfig,
        dataflow: Dataflow = Dataflow.SEMI_BROADCAST_WS,
        background_sts_words_per_cycle: float = 16.0,
        weight_load_exposed_cycles: int | None = None,
    ) -> None:
        self.config = config
        self.dataflow = dataflow
        self.background_sts = background_sts_words_per_cycle
        # The repurposed operand collectors double-buffer the next weights;
        # half of the load is exposed at the sub-tile switch.
        if weight_load_exposed_cycles is None:
            weight_load_exposed_cycles = config.array_rows // 2
        self.weight_load_exposed = weight_load_exposed_cycles
        self._busy_until = [0.0] * config.units_per_sm
        self.lsma_count = 0

    # -- LsmaEngine interface ------------------------------------------------------
    def issue(self, unit_id: int, k_extent: int, now: float) -> LsmaIssue:
        if not (0 <= unit_id < self.config.units_per_sm):
            raise SimulationError(
                f"unit {unit_id} out of range (SM has {self.config.units_per_sm})"
            )
        if k_extent <= 0:
            raise SimulationError("LSMA stream extent must be positive")
        if self._busy_until[unit_id] > now:
            return LsmaIssue(accepted=False)

        array_k = self.config.array_rows
        array_n = self.config.effective_cols
        stream_cycles, lsu_overhead = _stream_cost(
            self.dataflow,
            k_extent,
            array_k,
            array_n,
            self.config.smem_banks_for_sma,
            self.background_sts,
        )
        busy_until = now + self.weight_load_exposed + stream_cycles
        self._busy_until[unit_id] = busy_until
        self.lsma_count += 1

        macs = k_extent * array_k * array_n
        mac_counter = {
            DataType.FP32: "sma_macs_fp32",
            DataType.FP16: "sma_macs_fp16",
            DataType.INT8: "sma_macs_int8",
        }[self.config.dtype]
        counters = CounterBag(
            {
                "sma_macs": macs,
                mac_counter: macs,
                # A feed: K words per streamed row from the reserved banks.
                "smem_read_words": k_extent * array_k,
                # Resident weights: loaded once per LSMA from shared memory.
                "smem_read_words_weights": array_k * array_n,
                # C rows: one read (C[in]) and one write (C[out]) per element
                # against the assigned register-file bank.
                "rf_reads": k_extent * array_n / 32.0,
                "rf_writes": k_extent * array_n / 32.0,
                "lsma_issued": 1,
            }
        )
        counters.add("smem_read_words", array_k * array_n)
        return LsmaIssue(
            accepted=True,
            busy_until=busy_until,
            counters=counters,
            lsu_overhead_cycles=lsu_overhead,
        )

    def idle_at(self, now: float) -> float:
        return max([now] + self._busy_until)

    def next_free(self, now: float) -> float:
        return min(
            (busy for busy in self._busy_until if busy > now), default=math.inf
        )

    def reset(self) -> None:
        self._busy_until = [0.0] * self.config.units_per_sm
        self.lsma_count = 0

    # -- introspection ---------------------------------------------------------------
    def unit_busy(self, unit_id: int, now: float) -> bool:
        return self._busy_until[unit_id] > now

    @property
    def storage_bytes(self) -> int:
        """Controller latch storage (paper: 8x8B Ain + 24x8B Cout = 256 B)."""
        return self.config.controller_storage_bytes
