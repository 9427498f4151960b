"""GEMM executor: dispatch a problem to a backend and time it end to end.

Pipeline per problem: Fig-6 tiling plan -> per-backend kernel trace for a
small sample window -> cycle-level SM simulation -> linear extrapolation to
the full K loop (sampling methodology, DESIGN.md SS2) -> whole-GPU launch
composition with wave quantization and the DRAM bandwidth bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.stats import CounterBag
from repro.config import DataType, SystemConfig
from repro.errors import MappingError, SimulationError
from repro.gemm.cache import TimingCache
from repro.gemm.problem import GemmProblem
from repro.gemm.tiling import TilingPlan, plan_gemm
from repro.gemm.traces import (
    SIMD_K_SLICE,
    TC_K_SLICE,
    build_simd_gemm_kernel,
    build_tc_gemm_kernel,
)
from repro.gpu.dram import DramTraffic
from repro.gpu.gpu import GpuTimingModel, KernelLaunch, LaunchResult
from repro.gpu.sm import SmResult, StreamingMultiprocessor
from repro.sma.mapping import SmaGemmMapper
from repro.systolic.dataflow import Dataflow

BACKENDS = ("simd", "tc", "sma")

#: K-loop iteration counts of the two sample windows that anchor the linear
#: extrapolation of a thread block's cycles.
SAMPLE_WINDOW = (2, 4)

#: Operand-collector efficiency of the simulated SM's register file.
COLLECTOR_EFFICIENCY = 0.95


@dataclass(frozen=True)
class GemmTiming:
    """Full timing result of one GEMM on one backend."""

    problem: GemmProblem
    backend: str
    tb_cycles: float
    cycles: float
    seconds: float
    efficiency: float          # useful FLOPs / (cycles * whole-GPU peak)
    sm_efficiency: float       # per-SM steady-state FLOP efficiency
    counters: CounterBag
    launch: LaunchResult

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3

    @property
    def tflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.problem.flops / self.seconds / 1e12


def _extrapolate(
    lo: SmResult, lo_n: int, hi: SmResult, hi_n: int, iterations: int
) -> tuple[float, CounterBag]:
    """Linear model cycles(n) = base + n * slope, evaluated at ``iterations``."""
    delta = hi_n - lo_n
    if delta <= 0:
        raise MappingError("sample windows must grow")
    slope = (hi.cycles - lo.cycles) / delta
    base = lo.cycles - lo_n * slope
    cycles = max(0.0, base + iterations * slope)

    counters = CounterBag()
    keys = set(lo.counters.names()) | set(hi.counters.names())
    for key in keys:
        k_slope = (hi.counters.get(key) - lo.counters.get(key)) / delta
        k_base = lo.counters.get(key) - lo_n * k_slope
        counters.add(key, max(0.0, k_base + iterations * k_slope))
    return cycles, counters


class GemmExecutor:
    """Times GEMMs on one backend of one system configuration."""

    def __init__(
        self,
        system: SystemConfig,
        backend: str,
        dataflow: Dataflow = Dataflow.SEMI_BROADCAST_WS,
        scheduler: str | None = None,
        cache: TimingCache | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise MappingError(f"unknown backend {backend!r}; one of {BACKENDS}")
        if system.gpu is None:
            raise MappingError("GEMM executor needs a GPU-bearing system")
        if backend == "sma" and system.sma is None:
            raise MappingError(f"system {system.name!r} has no SMA units")
        self.system = system
        self.backend = backend
        self.dataflow = dataflow
        self.scheduler = scheduler or ("sma_rr" if backend == "sma" else "gto")
        self.sm = StreamingMultiprocessor(
            system.gpu, collector_efficiency=COLLECTOR_EFFICIENCY
        )
        self.timing_model = GpuTimingModel(system.gpu)
        # Timings and window traces live in a TimingCache so they can be
        # shared across executors/platforms (repro.api.Session passes one
        # cache to everything it builds); a private cache is the fallback.
        self.cache = cache if cache is not None else TimingCache()

    # -- peak throughput of this backend ------------------------------------------
    def peak_flops_per_cycle_per_sm(self) -> float:
        gpu = self.system.gpu
        if self.backend == "simd":
            return float(gpu.simd_flops_per_cycle_per_sm)
        if self.backend == "tc":
            return float(gpu.tc_flops_per_cycle_per_sm)
        return float(self.system.sma.flops_per_cycle_per_sm)

    def k_slice(self) -> int:
        if self.backend == "tc":
            return TC_K_SLICE
        if self.backend == "sma":
            return self.system.sma.array_rows
        return SIMD_K_SLICE

    def default_dtype(self) -> DataType:
        if self.backend == "simd":
            return DataType.FP32
        if self.backend == "sma":
            return self.system.sma.dtype
        return DataType.FP16

    # -- kernel construction ---------------------------------------------------------
    def _build_kernel(self, plan: TilingPlan, iterations: int):
        if self.backend == "simd":
            return build_simd_gemm_kernel(plan, iterations, self.scheduler)
        if self.backend == "tc":
            return build_tc_gemm_kernel(plan, iterations, self.scheduler)
        mapper = SmaGemmMapper(
            self.system.gpu,
            self.system.sma,
            dataflow=self.dataflow,
            scheduler=self.scheduler,
        )
        return mapper.build_kernel(plan, iterations)

    # -- DRAM traffic with inter-TB L2 reuse -----------------------------------------
    def _dram_traffic(self, plan: TilingPlan) -> DramTraffic:
        """L2-reuse-filtered DRAM traffic of the whole launch.

        Thread blocks of one wave execute their K-loops loosely in lockstep,
        so within a wave each A tile-row band and each B k-slice band is
        fetched from DRAM once and reused through L2 (the per-iteration
        working set is tens of KB against a 6 MB L2). Bands are re-fetched
        for every wave that touches them.
        """
        problem = plan.problem
        gpu = self.system.gpu
        element = problem.dtype.bytes
        tiles_m, tiles_n = plan.tiles_m, plan.tiles_n
        waves = max(1, -(-plan.num_thread_blocks // gpu.num_sms))
        rows_per_wave = min(tiles_m, max(1, -(-gpu.num_sms // tiles_n)))
        cols_per_wave = min(tiles_n, gpu.num_sms)
        per_wave_iter_bytes = (
            rows_per_wave * plan.tile_m + cols_per_wave * plan.tile_n
        ) * plan.k_slice * element
        read_bytes = float(waves * plan.k_iterations * per_wave_iter_bytes)
        write_bytes = float(problem.m * problem.n * 4)
        if problem.beta != 0.0:
            read_bytes += write_bytes
        return DramTraffic(read_bytes=read_bytes, write_bytes=write_bytes)

    def _window(self, plan: TilingPlan, iterations: int) -> SmResult:
        """Run (or fetch) the shape-independent sample-window simulation.

        Window traces depend only on (dtype, iterations) for a given
        executor configuration — the Fig-6 tile shape is fixed — so one
        simulation serves every layer shape.
        """
        key = TimingCache.window_key(
            self.system, self.backend, self.scheduler, self.dataflow,
            plan.problem.dtype, iterations,
        )
        result = self.cache.get_window(key)
        if result is None:
            result = self.sm.run(self._build_kernel(plan, iterations))
            self.cache.put_window(key, result)
        return result

    # -- public API --------------------------------------------------------------------
    def plan(self, problem: GemmProblem) -> TilingPlan:
        return plan_gemm(problem, k_slice=self.k_slice())

    def cache_key(self, problem: GemmProblem) -> tuple:
        """The shared-cache key this executor uses for ``problem``."""
        return TimingCache.timing_key(
            self.system, self.backend, self.scheduler, self.dataflow, problem
        )

    def time_gemm(self, problem: GemmProblem) -> GemmTiming:
        """Time one GEMM; results are cached in the (shareable) cache.

        The key embeds the whole frozen problem, so two problems that
        differ only in ``alpha``/``beta`` get distinct entries (``beta !=
        0`` adds C read traffic in :meth:`_dram_traffic`).
        """
        key = self.cache_key(problem)
        cached = self.cache.get_timing(key)
        if cached is not None:
            return cached

        plan = self.plan(problem)
        iterations = plan.k_iterations
        lo_n, hi_n = SAMPLE_WINDOW
        if iterations <= hi_n:
            result = self._window(plan, iterations)
            tb_cycles, tb_counters = result.cycles, result.counters
        else:
            lo = self._window(plan, lo_n)
            hi = self._window(plan, hi_n)
            tb_cycles, tb_counters = _extrapolate(lo, lo_n, hi, hi_n, iterations)

        launch = self.timing_model.launch(
            KernelLaunch(
                name=f"{self.backend}_gemm",
                tb_cycles=tb_cycles,
                num_thread_blocks=plan.num_thread_blocks,
                tb_counters=tb_counters,
                extra_traffic=self._dram_traffic(plan),
                use_counter_traffic=False,
            )
        )
        gpu = self.system.gpu
        seconds = launch.cycles / (gpu.clock_ghz * 1e9)
        peak_per_sm = self.peak_flops_per_cycle_per_sm()
        whole_gpu_peak = peak_per_sm * gpu.num_sms
        efficiency = problem.flops / (launch.cycles * whole_gpu_peak)

        macs_per_tb = (
            tb_counters.get("fp32_macs")
            + tb_counters.get("fp16_macs")
            + tb_counters.get("sma_macs")
        )
        sm_efficiency = (
            2.0 * macs_per_tb / (tb_cycles * peak_per_sm) if tb_cycles > 0 else 0.0
        )
        if efficiency > 1.0 or sm_efficiency > 1.0:
            raise SimulationError(
                f"{self.backend} backend on {self.system.name!r} beats its peak"
                f" on {problem}: efficiency {efficiency:.6g},"
                f" SM efficiency {sm_efficiency:.6g}"
            )
        timing = GemmTiming(
            problem=problem,
            backend=self.backend,
            tb_cycles=tb_cycles,
            cycles=launch.cycles,
            seconds=seconds,
            efficiency=efficiency,
            sm_efficiency=sm_efficiency,
            counters=launch.counters,
            launch=launch,
        )
        self.cache.put_timing(key, timing)
        return timing
