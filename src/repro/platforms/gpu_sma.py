"""SMA platform: GEMM ops in systolic mode, everything else in SIMD mode.

The platform holds the MAC substrate's current ``mode`` (``"simd"`` or
``"systolic"``) while it lowers a chain of operators. An operator whose
mode differs from the one before it pays the temporal reconfiguration
(8 cycles per switch, paper SS IV-A) on top of its own time; that small
cost is what makes the "simultaneous multi-mode" design practical.
"""

from __future__ import annotations

from repro.config import SystemConfig, system_sma
from repro.dnn.ops import Operator
from repro.gemm.cache import TimingCache
from repro.platforms.base import (
    DEFAULT_FRAMEWORK_OVERHEAD_S,
    GpuPlatformBase,
    OpStats,
)
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.sma.sync import partition_warps
from repro.systolic.dataflow import Dataflow


class GpuSmaPlatform(GpuPlatformBase):
    """The paper's architecture: 2 or 3 SMA units per SM."""

    backend = "sma"

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
        super().__init__(
            system, f"gpu-{system.sma.units_per_sm}sma", framework_overhead_s,
            interference=interference, cache=cache, scheduler=scheduler,
            dataflow=dataflow,
        )
        self._switch_s = float(system.sma.reconfiguration_cycles) / (
            self.gpu.clock_ghz * 1e9
        )
        self.mode = "simd"

    def run_op(self, op: Operator) -> OpStats:
        stats = super().run_op(op)
        mode = "systolic" if stats.mode == "gemm-sma" else "simd"
        if mode == self.mode:
            return stats
        self.mode = mode
        return OpStats(
            stats.op_name, stats.group, stats.mode,
            stats.seconds + self._switch_s, stats.flops, stats.energy,
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

        Within one stream the lowering pass prices switches in
        :meth:`run_op`; when the scheduler interleaves *streams* on the
        MAC substrate it charges this extra resync: the array
        reconfiguration cycles plus one cooperative-group sync across both
        warp sets of the double-buffered mapping (:mod:`repro.sma.sync`).
        """
        partition = partition_warps(self.gpu.max_warps_per_sm)
        resync_cycles = float(len(partition.all_warps))
        cycles = self.system.sma.reconfiguration_cycles + resync_cycles
        return cycles / (self.gpu.clock_ghz * 1e9)

    def reset_schedule_state(self) -> None:
        self.mode = "simd"
