"""Platform interface and the shared GPU operator execution logic.

A platform *lowers* a :class:`repro.dnn.graph.LayerGraph` into
:class:`~repro.schedule.timeline.OpTask`\\ s — per-op timing, energy,
execution mode, and typed resource claims — and hands them to the
timeline scheduler (:mod:`repro.schedule`). Single-model runs are the
degenerate one-stream schedule; multi-stream scenarios share the same
lowered tasks. The Fig 3 breakdown groups ops into the paper's categories
(CNN&FC, RoIAlign, NMS, ArgMax, CRF, Transfer).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.common.stats import CounterBag
from repro.config import GpuConfig, SystemConfig
from repro.dnn.graph import LayerGraph
from repro.dnn.ops import (
    ArgMax,
    Crf,
    Operator,
    RegionProposal,
    RoIAlign,
)
from repro.energy.accounting import EnergyBreakdown, EnergyLedger
from repro.gemm.cache import TimingCache
from repro.gemm.executor import GemmTiming
from repro.schedule.resources import ResourceClaim, claims_for_mode
from repro.schedule.timeline import OpTask, Timeline, TimelineScheduler

#: Per-op framework overhead (graph runtime, kernel dispatch) used by the
#: end-to-end experiments (Fig 3 / Fig 9); pure kernel studies pass 0.
DEFAULT_FRAMEWORK_OVERHEAD_S = 100e-6

#: The paper's Fig 3 reporting groups, in canonical table order.
REPORTING_GROUPS = ("CNN&FC", "RoIAlign", "NMS", "ArgMax", "CRF", "Transfer")


def substrate_mode(mode: str) -> str:
    """Collapse a per-op mode label to its execution-substrate mode.

    ``OpStats.mode`` labels carry backend detail (``"gemm-sma"``,
    ``"tpu-lowered"``); the scheduler cares about *where* the op runs:
    the temporally-switched MAC substrate (``simd``/``systolic``), the
    TensorCores, a standalone array, the host, or the transfer link.
    """
    if "sma" in mode or "systolic" in mode:
        return "systolic"
    if "tc" in mode:
        return "tc"
    if "transfer" in mode:
        return "transfer"
    if "host" in mode or "cpu" in mode:
        return "host"
    if "tpu" in mode:
        return "array"
    return "simd"


@dataclass(frozen=True)
class OpStats:
    """Timing and energy of one operator on one platform."""

    op_name: str
    group: str              # Fig 3 reporting group
    mode: str               # e.g. "gemm-sma", "simd", "tpu-lowered", "host"
    seconds: float
    flops: float
    energy: EnergyBreakdown | None = None


@dataclass
class ModelRunResult:
    """Per-op stats plus aggregates for one model on one platform.

    ``timeline`` is the scheduled execution the stats came from (a
    single-stream :class:`~repro.schedule.timeline.Timeline`); its
    makespan equals ``total_seconds`` for the degenerate one-stream case.
    """

    model_name: str
    platform_name: str
    op_stats: list[OpStats] = field(default_factory=list)
    timeline: Timeline | None = None

    @property
    def total_seconds(self) -> float:
        return sum(stat.seconds for stat in self.op_stats)

    @property
    def total_ms(self) -> float:
        return self.total_seconds * 1e3

    def grouped_seconds(self) -> dict[str, float]:
        """Seconds per Fig 3 reporting group."""
        groups: dict[str, float] = {}
        for stat in self.op_stats:
            groups[stat.group] = groups.get(stat.group, 0.0) + stat.seconds
        return groups

    def total_energy(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for stat in self.op_stats:
            if stat.energy is not None:
                total = total.merged(stat.energy)
        return total


def reporting_group(op: Operator) -> str:
    """Map an operator to the paper's Fig 3 breakdown group."""
    if isinstance(op, RoIAlign):
        return "RoIAlign"
    if isinstance(op, RegionProposal):
        return "NMS"
    if isinstance(op, ArgMax):
        return "ArgMax"
    if isinstance(op, Crf):
        return "CRF"
    return "CNN&FC"


class Platform(abc.ABC):
    """Executes operators; subclasses define per-op timing and energy."""

    def __init__(
        self,
        name: str,
        framework_overhead_s: float = DEFAULT_FRAMEWORK_OVERHEAD_S,
        interference=None,
    ) -> None:
        self.name = name
        self.framework_overhead_s = framework_overhead_s
        self.interference = interference

    @abc.abstractmethod
    def run_op(self, op: Operator) -> OpStats:
        """Execute one operator."""

    def interference_matrix(self):
        """The device's measured co-run contention model, if any.

        Catalog-built platforms carry their device's
        :class:`~repro.catalog.interference.InterferenceMatrix`; the
        scheduler consults it instead of per-kernel fractional claims.
        ``None`` (hand-coded platforms) keeps the legacy claim-derived
        co-run model.
        """
        return self.interference

    # -- lowering into the timeline scheduler -------------------------------------
    def task_claims(self, op: Operator, stats: OpStats) -> tuple[ResourceClaim, ...]:
        """The typed resource claims of one lowered operator.

        The default maps the op's (normalized) mode label to a single full
        claim, which makes any platform — including user-registered ones —
        schedulable; platforms with measured co-run pressure (TensorCores)
        or MAC aliasing (SMA) override this.
        """
        return claims_for_mode(substrate_mode(stats.mode))

    def cross_switch_seconds(self) -> float:
        """Extra cost when the scheduler flips the MAC substrate's mode
        between tasks of *different* streams (intra-stream switches are
        priced during lowering). Zero unless the platform reconfigures."""
        return 0.0

    def reset_schedule_state(self) -> None:
        """Reset per-run lowering state (e.g. the SMA mode tracker) so a
        scenario prices every stream from the same initial conditions."""

    def lower_model(
        self, graph: LayerGraph, *, stream: str | None = None
    ) -> list[OpTask]:
        """Lower a layer graph into a chained single-stream task list.

        Each node becomes one :class:`OpTask` priced by :meth:`run_op`
        (plus the per-launch framework overhead) with resource claims and
        mode metadata; dependencies chain the tasks in topological order.
        The per-op :class:`OpStats` ride along as the task payload.
        """
        stream = stream if stream is not None else graph.name
        cross_switch_s = self.cross_switch_seconds()
        tasks: list[OpTask] = []
        for node in graph.topological_order():
            stats = self.run_op(node.op)
            overhead = self.framework_overhead_s * node.op.kernel_launches
            stats = OpStats(
                stats.op_name, stats.group, stats.mode,
                stats.seconds + overhead, stats.flops, stats.energy,
            )
            uid = len(tasks)
            tasks.append(
                OpTask(
                    uid=uid,
                    name=stats.op_name,
                    seconds=stats.seconds,
                    claims=self.task_claims(node.op, stats),
                    mode=substrate_mode(stats.mode),
                    stream=stream,
                    deps=(uid - 1,) if uid else (),
                    cross_switch_s=cross_switch_s,
                    payload=stats,
                )
            )
        return tasks

    def run_model(self, graph: LayerGraph) -> ModelRunResult:
        """Execute a layer graph through the timeline scheduler.

        A single model is the degenerate one-stream scenario: the lowered
        chain runs one task at a time, so the per-op stats (and their sum)
        are identical to the historical sequential execution.
        """
        tasks = self.lower_model(graph)
        timeline = TimelineScheduler(
            "fifo", interference=self.interference_matrix()
        ).run(tasks)
        return ModelRunResult(
            model_name=graph.name,
            platform_name=self.name,
            op_stats=[task.payload for task in tasks],
            timeline=timeline,
        )


class GpuPlatformBase(Platform):
    """Shared GPU logic: the SIMD roofline for non-GEMM operators.

    Non-GEMM operators run in SIMD mode on every GPU variant (the whole
    point of SMA: programmability is preserved). Time is the classic
    roofline ``max(compute, memory)`` with the operator's calibrated
    ``simd_efficiency``, plus the kernel launch overhead. Both read only
    the GPU and the op, so each operator is priced once per ``cache``
    (:meth:`TimingCache.op_table`); the subclasses' GEMM executors time
    through the same cache, and each timing's energy is accounted once
    per platform (:meth:`gemm_energy`).
    """

    def __init__(
        self,
        system: SystemConfig,
        name: str,
        framework_overhead_s: float = DEFAULT_FRAMEWORK_OVERHEAD_S,
        interference=None,
        cache: TimingCache | None = None,
    ) -> None:
        super().__init__(name, framework_overhead_s, interference=interference)
        if system.gpu is None:
            raise ValueError(f"platform {name} requires a GPU system")
        self.system = system
        self.gpu: GpuConfig = system.gpu
        self.ledger = EnergyLedger(self.gpu)
        self.cache = cache if cache is not None else TimingCache()
        self._priced = self.cache.op_table(self.gpu)
        self._gemm_energies: dict[
            int, tuple[GemmTiming, EnergyBreakdown]
        ] = {}

    def gemm_energy(self, timing: GemmTiming) -> EnergyBreakdown:
        """The energy of one timed GEMM, accounted once per timing.

        Keyed by the timing's id, with the timing held in the entry so
        the id cannot be reused while the entry lives. Every op priced
        from one timing shares its :class:`EnergyBreakdown`, so nothing
        may mutate it.
        """
        entry = self._gemm_energies.get(id(timing))
        if entry is None:
            energy = self.ledger.account(timing.counters)
            entry = self._gemm_energies[id(timing)] = (timing, energy)
        return entry[1]

    def _simd_op_seconds(self, op: Operator) -> float:
        peak_flops = (
            self.gpu.num_sms
            * self.gpu.simd_flops_per_cycle_per_sm
            * self.gpu.clock_ghz
            * 1e9
        )
        bytes_touched = op.input_bytes + op.output_bytes + op.weight_bytes
        compute = op.flops / (peak_flops * op.simd_efficiency)
        memory = bytes_touched / (self.gpu.dram_bandwidth_gbps * 1e9)
        launch = 2000.0 / (self.gpu.clock_ghz * 1e9)
        return max(compute, memory) + launch

    def _simd_op_energy(self, op: Operator) -> EnergyBreakdown:
        """Approximate event counts for a SIMD-mode operator.

        Each FLOP pair is one lane-FMA; instructions ~= warp ops with the
        operator's efficiency as issue density; every operand set flows
        through the register file once and DRAM traffic equals the
        operator's footprint.
        """
        bytes_touched = op.input_bytes + op.output_bytes + op.weight_bytes
        warp_ops = op.flops / 2.0 / 32.0
        counters = CounterBag(
            {
                "fp32_macs": op.flops / 2.0,
                "instructions_issued": warp_ops * 1.5,
                "rf_reads": warp_ops * 3.0,
                "rf_writes": warp_ops * 1.0,
                "dram_bytes": bytes_touched,
                "global_read_bytes": op.input_bytes + op.weight_bytes,
                "global_write_bytes": op.output_bytes,
            }
        )
        return self.ledger.account(counters)

    def run_irregular(self, op: Operator) -> OpStats:
        stats = self._priced.get(op)
        if stats is None:
            stats = self._priced[op] = OpStats(
                op_name=op.name,
                group=reporting_group(op),
                mode="simd",
                seconds=self._simd_op_seconds(op),
                flops=op.flops,
                energy=self._simd_op_energy(op),
            )
        return stats
