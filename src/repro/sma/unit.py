"""One SMA unit: SIMD lanes reconfigurable into a systolic array.

In SIMD mode the unit's 64 FP32 (or 128 FP16) MAC units behave as ordinary
CUDA cores; in systolic mode they form an 8x8 (or 8x16) semi-broadcast
weight-stationary array whose stationary weights live in the repurposed
operand collectors (paper Fig 5C). This class carries the functional array
plus the mode tracker; kernel-level timing goes through
:class:`repro.sma.controller.SystolicControllerModel`.
"""

from __future__ import annotations

from repro.config import SmaConfig
from repro.errors import MappingError
from repro.sma.lsma import execute_lsma
from repro.sma.mode import ExecutionMode, ModeSwitchTracker
from repro.systolic.array import GemmRunResult, SystolicArray
from repro.systolic.dataflow import Dataflow


class SmaUnit:
    """A reconfigurable MAC-unit cluster (one of 2-3 per SM)."""

    def __init__(
        self,
        config: SmaConfig | None = None,
        dataflow: Dataflow = Dataflow.SEMI_BROADCAST_WS,
    ) -> None:
        self.config = config or SmaConfig()
        self.dataflow = dataflow
        self.tracker = ModeSwitchTracker(self.config)
        if dataflow is Dataflow.SEMI_BROADCAST_WS:
            rows, cols = self.config.effective_cols, self.config.array_rows
        else:
            rows, cols = self.config.array_rows, self.config.effective_cols
        self._array = SystolicArray(rows=rows, cols=cols, dataflow=dataflow)

    @property
    def mode(self) -> ExecutionMode:
        return self.tracker.mode

    @property
    def array_shape(self) -> tuple[int, int]:
        """(K, N): reduction depth by output width."""
        return self.config.array_rows, self.config.effective_cols

    def enter_systolic_mode(self) -> float:
        """Reconfigure to systolic mode; returns the switch cost in cycles."""
        return self.tracker.switch_to(ExecutionMode.SYSTOLIC)

    def enter_simd_mode(self) -> float:
        """Reconfigure back to SIMD lanes."""
        return self.tracker.switch_to(ExecutionMode.SIMD)

    def run_lsma(
        self,
        a_tile: np.ndarray,
        b_subtile: np.ndarray,
        c_slice: np.ndarray | None = None,
    ) -> tuple[np.ndarray, GemmRunResult]:
        """Functionally execute one LSMA on this unit's array.

        Returns the accumulated C slice and the array-level run result
        (cycle counts, access counts). The unit must be in systolic mode.
        """
        if self.mode is not ExecutionMode.SYSTOLIC:
            raise MappingError(
                "LSMA issued while the unit is in SIMD mode; call"
                " enter_systolic_mode() first (temporal integration)"
            )
        k_rows, n_cols = self.array_shape
        if b_subtile.shape != (k_rows, n_cols):
            raise MappingError(
                f"B sub-tile {b_subtile.shape} does not fit the"
                f" {k_rows}x{n_cols} array"
            )
        result_c = execute_lsma(a_tile, b_subtile, c_slice, self.dataflow)
        timing = self._array.run_gemm(a_tile, b_subtile)
        self.tracker.account(timing.cycles)
        return result_c, timing

    def simd_flops_per_cycle(self) -> int:
        """Peak FLOPs/cycle the same lanes deliver in SIMD mode."""
        return 2 * self.config.macs_per_cycle_per_unit
