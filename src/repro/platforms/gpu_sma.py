"""SMA platform: GEMM ops in systolic mode, everything else in SIMD mode.

The temporal reconfiguration between modes is tracked per operator
transition; its cost (8 cycles per switch, paper SS IV-A) is what makes the
"simultaneous multi-mode" design practical and is reported by
``mode_switch_overhead_seconds``.
"""

from __future__ import annotations

from repro.config import DataType, SystemConfig, system_sma
from repro.dnn.ops import Operator
from repro.gemm.cache import TimingCache
from repro.gemm.executor import GemmExecutor
from repro.gemm.problem import GemmProblem
from repro.platforms.base import (
    DEFAULT_FRAMEWORK_OVERHEAD_S,
    GpuPlatformBase,
    OpStats,
    reporting_group,
)
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.sma.mode import ExecutionMode, ModeSwitchTracker
from repro.sma.sync import partition_warps
from repro.systolic.dataflow import Dataflow


class GpuSmaPlatform(GpuPlatformBase):
    """The paper's architecture: 2 or 3 SMA units per SM."""

    def __init__(
        self,
        units: int = 3,
        system: SystemConfig | None = None,
        dataflow: Dataflow = Dataflow.SEMI_BROADCAST_WS,
        framework_overhead_s: float = DEFAULT_FRAMEWORK_OVERHEAD_S,
        cache: TimingCache | None = None,
        scheduler: str | None = None,
        interference=None,
    ) -> None:
        system = system or system_sma(units)
        super().__init__(system, f"gpu-{system.sma.units_per_sm}sma",
                         framework_overhead_s, interference=interference,
                         cache=cache)
        self.executor = GemmExecutor(system, "sma", dataflow=dataflow,
                                     scheduler=scheduler, cache=self.cache)
        self.mode_tracker = ModeSwitchTracker(system.sma)

    def run_op(self, op: Operator) -> OpStats:
        dims = op.gemm_dims()
        if dims is None:
            switch_cycles = self.mode_tracker.switch_to(ExecutionMode.SIMD)
            stats = self.run_irregular(op)
            switch_seconds = switch_cycles / (self.gpu.clock_ghz * 1e9)
            self.mode_tracker.account(
                stats.seconds * self.gpu.clock_ghz * 1e9
            )
            return OpStats(
                stats.op_name, stats.group, stats.mode,
                stats.seconds + switch_seconds, stats.flops, stats.energy,
            )
        switch_cycles = self.mode_tracker.switch_to(ExecutionMode.SYSTOLIC)
        m, n, k = dims
        problem = GemmProblem(m, n, k, dtype=self.system.sma.dtype)
        timing = self.executor.time_gemm(problem)
        self.mode_tracker.account(timing.cycles)
        switch_seconds = switch_cycles / (self.gpu.clock_ghz * 1e9)
        return OpStats(
            op_name=op.name,
            group=reporting_group(op),
            mode="gemm-sma",
            seconds=timing.seconds + switch_seconds,
            flops=float(problem.flops),
            energy=self.gemm_energy(timing),
        )

    @property
    def mode_switch_overhead_seconds(self) -> float:
        """Total reconfiguration time spent so far (temporal integration)."""
        return self.mode_tracker.reconfiguration_cycles / (
            self.gpu.clock_ghz * 1e9
        )

    # -- scheduling hooks ---------------------------------------------------------
    def task_claims(self, op: Operator, stats: OpStats) -> tuple[ResourceClaim, ...]:
        # Temporal integration: the systolic array *is* the SIMD MAC
        # substrate reconfigured, so a systolic task owns both — a
        # co-scheduled SIMD stream time-multiplexes with it instead of
        # running beside it (that spatial co-run is the TC platform).
        if stats.mode == "gemm-sma":
            return (
                ResourceClaim(ResourceKind.ARRAY),
                ResourceClaim(ResourceKind.SIMD),
            )
        return super().task_claims(op, stats)

    def cross_switch_seconds(self) -> float:
        """Drain/fill plus warp-set resync for a cross-stream mode flip.

        Within one stream the lowering pass prices switches through the
        mode tracker; when the scheduler interleaves *streams* on the MAC
        substrate it charges this extra resync: the array reconfiguration
        cycles plus one cooperative-group sync across both warp sets of
        the double-buffered mapping (:mod:`repro.sma.sync`).
        """
        partition = partition_warps(self.gpu.max_warps_per_sm)
        resync_cycles = float(len(partition.all_warps))
        cycles = self.system.sma.reconfiguration_cycles + resync_cycles
        return cycles / (self.gpu.clock_ghz * 1e9)

    def reset_schedule_state(self) -> None:
        self.mode_tracker = ModeSwitchTracker(self.system.sma)
