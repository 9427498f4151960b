"""GEMM mapping onto SMA (paper SS IV-C, Fig 6) as SM pipeline traces.

Per thread block: a 128x128 ``Csub`` in the register file; 64 warps split
into a loader set and a compute set working double-buffered. Each
K-iteration the loaders stream the next ``Atile`` (128x8) and ``Btile``
(8x128) from global to shared memory in SIMD mode while the compute set
drives the systolic units: the Btile is cut into 8 x <unit-width>
sub-tiles, and one LSMA per sub-tile streams all 128 A rows through a unit.
Warp sets meet at a cooperative-group barrier per iteration.

The sub-tile count rarely divides the unit count evenly — e.g. 16 FP32
sub-tiles over 3 units leaves two units idle in the last round — which is
exactly the sub-linear 3-SMA scaling visible in the paper's Fig 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.mathutil import ceil_div
from repro.config import GpuConfig, SmaConfig
from repro.errors import MappingError
from repro.gemm.tiling import TilingPlan
from repro.gpu.sm import KernelSpec
from repro.isa.instructions import MemSpace, coalesced_access
from repro.isa.program import ProgramBuilder, WarpProgram
from repro.sma.controller import SystolicControllerModel
from repro.sma.sync import GROUP_ALL, make_double_buffer_groups, partition_warps
from repro.systolic.dataflow import Dataflow

#: Bytes one warp-wide coalesced access moves (32 lanes x 4 B).
WARP_ACCESS_BYTES = 128


@dataclass(frozen=True)
class SmaKernelShape:
    """Static shape facts of the Fig 6 mapping for one configuration."""

    num_warps: int
    tile_m: int
    tile_n: int
    k_slice: int
    unit_width: int
    units: int
    subtiles: int           # B sub-tiles per K-iteration
    rounds: int             # sequential LSMA rounds per unit per iteration

    @property
    def round_utilization(self) -> float:
        """Fraction of unit-round slots doing useful work."""
        return self.subtiles / float(self.rounds * self.units)


class SmaGemmMapper:
    """Builds double-buffered SMA GEMM kernels for the SM pipeline."""

    def __init__(
        self,
        gpu: GpuConfig,
        sma: SmaConfig,
        dataflow: Dataflow = Dataflow.SEMI_BROADCAST_WS,
        scheduler: str = "sma_rr",
        num_warps: int = 64,
        sync_per_lsma: bool = False,
    ) -> None:
        self.gpu = gpu
        self.sma = sma
        self.dataflow = dataflow
        self.scheduler = scheduler
        self.num_warps = num_warps
        # Ablation: TC-style strictly synchronous semantics — the issuing
        # warp drains the array after every LSMA instead of once per
        # iteration (paper SS IV-B argues asynchrony is what enables the
        # fine-grained SIMD-systolic collaboration).
        self.sync_per_lsma = sync_per_lsma

    # -- shape arithmetic ----------------------------------------------------------
    def kernel_shape(self, plan: TilingPlan) -> SmaKernelShape:
        unit_width = self.sma.effective_cols
        if plan.k_slice != self.sma.array_rows:
            raise MappingError(
                f"SMA mapping needs K-slice == array depth "
                f"({self.sma.array_rows}), plan has {plan.k_slice}"
            )
        subtiles = plan.subtiles_per_iteration(unit_width)
        rounds = ceil_div(subtiles, self.sma.units_per_sm)
        return SmaKernelShape(
            num_warps=self.num_warps,
            tile_m=plan.tile_m,
            tile_n=plan.tile_n,
            k_slice=plan.k_slice,
            unit_width=unit_width,
            units=self.sma.units_per_sm,
            subtiles=subtiles,
            rounds=rounds,
        )

    def make_controller(self, plan: TilingPlan) -> SystolicControllerModel:
        """Controller with the double-buffer store traffic as background."""
        shape = self.kernel_shape(plan)
        staged_bytes = (
            plan.tile_m * plan.k_slice + plan.k_slice * plan.tile_n
        ) * plan.problem.dtype.bytes
        staged_words = staged_bytes / 4.0
        approx_iteration_cycles = shape.rounds * (
            plan.tile_m + plan.k_slice + self.sma.array_rows // 2
        )
        background = staged_words / max(1.0, approx_iteration_cycles)
        return SystolicControllerModel(
            self.sma,
            dataflow=self.dataflow,
            background_sts_words_per_cycle=background,
        )

    # -- trace generation ------------------------------------------------------------
    def build_kernel(self, plan: TilingPlan, iterations: int) -> KernelSpec:
        """Sample-window kernel: prologue + ``iterations`` K-iterations + epilogue."""
        if iterations <= 0:
            raise MappingError("need at least one K-iteration in the window")
        shape = self.kernel_shape(plan)
        partition = partition_warps(self.num_warps)
        loaders = sorted(partition.loaders)
        computers = sorted(partition.computers)
        masters = computers[: shape.units]

        staged_bytes = (
            plan.tile_m * plan.k_slice + plan.k_slice * plan.tile_n
        ) * plan.problem.dtype.bytes
        total_stage_ops = ceil_div(staged_bytes, WARP_ACCESS_BYTES)
        ldg_per_loader = ceil_div(total_stage_ops, len(loaders))

        writeback_bytes = plan.tile_m * plan.tile_n * 4
        stg_per_warp = ceil_div(
            ceil_div(writeback_bytes, WARP_ACCESS_BYTES), self.num_warps
        )

        programs: list[WarpProgram] = []
        instructions: dict = {}  # shared by every warp of this kernel
        for warp_id in range(self.num_warps):
            if warp_id in partition.loaders:
                program = self._loader_program(
                    instructions, warp_id, iterations, ldg_per_loader,
                    stg_per_warp,
                )
            else:
                unit_id = masters.index(warp_id) if warp_id in masters else None
                program = self._computer_program(
                    instructions, warp_id, iterations, shape, unit_id,
                    stg_per_warp,
                )
            programs.append(program)

        return KernelSpec(
            name=f"sma_gemm[{plan.problem}]x{iterations}",
            programs=programs,
            groups=make_double_buffer_groups(self.num_warps),
            scheduler=self.scheduler,
            lsma_engine=self.make_controller(plan),
        )

    def _loader_program(
        self,
        instructions: dict,
        warp_id: int,
        iterations: int,
        ldg_per_loader: int,
        stg_per_warp: int,
    ) -> WarpProgram:
        builder = ProgramBuilder(f"sma_loader_w{warp_id}", instructions)
        addr = 1
        builder.mov(addr, 0, tag="base_addr")
        # Prologue: fill buffer 0.
        self._emit_stage(builder, warp_id, 0, ldg_per_loader, addr)
        builder.cgsync(GROUP_ALL, tag="prologue")
        for iteration in range(iterations):
            self._emit_stage(builder, warp_id, iteration + 1, ldg_per_loader, addr)
            builder.cgsync(GROUP_ALL, tag=f"iter{iteration}")
        self._emit_writeback(builder, warp_id, stg_per_warp, addr)
        builder.exit()
        return builder.build()

    def _computer_program(
        self,
        instructions: dict,
        warp_id: int,
        iterations: int,
        shape: SmaKernelShape,
        unit_id: int | None,
        stg_per_warp: int,
    ) -> WarpProgram:
        builder = ProgramBuilder(f"sma_compute_w{warp_id}", instructions)
        a_addr, c_addr, b_val, height = 1, 2, 3, 4
        builder.mov(a_addr, 0)
        builder.mov(c_addr, 0)
        builder.mov(b_val, 0)
        builder.mov(height, 0)
        builder.cgsync(GROUP_ALL, tag="prologue")
        for iteration in range(iterations):
            if unit_id is not None:
                for round_index in range(shape.rounds):
                    subtile = round_index * shape.units + unit_id
                    if subtile >= shape.subtiles:
                        continue
                    builder.lsma(
                        a_addr,
                        c_addr,
                        b_val,
                        height,
                        k_extent=shape.tile_m,
                        unit_id=unit_id,
                        tag=f"iter{iteration}_sub{subtile}",
                    )
                    if self.sync_per_lsma:
                        builder.smawait(tag=f"iter{iteration}_sync{subtile}")
                builder.smawait(tag=f"iter{iteration}")
            builder.cgsync(GROUP_ALL, tag=f"iter{iteration}")
        self._emit_writeback(builder, warp_id, stg_per_warp, a_addr)
        builder.exit()
        return builder.build()

    def _emit_stage(
        self,
        builder: ProgramBuilder,
        warp_id: int,
        buffer_index: int,
        ops: int,
        addr_reg: int,
    ) -> None:
        """One loader warp's share of global->shared tile staging."""
        smem_base = (buffer_index % 2) * 8192 + warp_id * 128
        global_base = buffer_index * 65536 + warp_id * 128
        for op in range(ops):
            data = builder.fresh()
            builder.imad(addr_reg, addr_reg, 0, 0, tag="addr")
            builder.ldg(
                data,
                coalesced_access(MemSpace.GLOBAL, global_base + op * 4096),
                addr_reg,
                tag="stage_ldg",
            )
            builder.sts(
                coalesced_access(
                    MemSpace.SHARED, smem_base + op * 4096, is_store=True
                ),
                data,
                addr_reg,
                tag="stage_sts",
            )

    def _emit_writeback(
        self,
        builder: ProgramBuilder,
        warp_id: int,
        ops: int,
        addr_reg: int,
    ) -> None:
        """Epilogue: stream this warp's Csub rows to global memory."""
        base = warp_id * 1024
        for op in range(ops):
            builder.stg(
                coalesced_access(
                    MemSpace.GLOBAL, base + op * WARP_ACCESS_BYTES, is_store=True
                ),
                addr_reg,
                addr_reg,
                tag="writeback",
            )
