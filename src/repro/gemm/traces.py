"""SIMD and TensorCore GEMM kernel traces for the SM pipeline.

Both kernels implement the same 128x128 thread-block tile as the SMA
mapping (Fig 6) so the three backends differ only in how the inner product
is executed:

* **SIMD** — CUTLASS-style FP32 SGEMM: 16 warps, each thread owning a 4x8
  accumulator tile; per K-step the warp loads A/B fragments from shared
  memory and issues one FFMA per accumulator element.
* **TensorCore** — 16 warps, each owning a 32x32 warp tile computed as
  WMMA fragments; per 16-deep K-slice the warp loads fragments and issues
  64 HMMA steps whose 8-operand reads hammer the register file.

Tile staging (global->shared, double buffered) and the per-slice barrier
are identical across backends.
"""

from __future__ import annotations

from repro.common.mathutil import ceil_div
from repro.errors import MappingError
from repro.gemm.tiling import TilingPlan
from repro.gpu.sm import KernelSpec
from repro.isa.instructions import MemAccess, MemSpace, coalesced_access
from repro.isa.program import ProgramBuilder, WarpProgram

WARP_ACCESS_BYTES = 128
#: CUTLASS SGEMM: 256 threads per 128x128 tile, 8x8 accumulators each —
#: the register budget (~100 regs/thread) caps occupancy at 8 warps, which
#: is the latency-hiding deficit the paper attributes to the SIMD baseline.
SIMD_WARPS = 8
TC_WARPS = 16
SIMD_K_SLICE = 8
TC_K_SLICE = 16

# Register-id blocks (per warp, disjoint by convention).
_ACC_BASE = 100
_AFRAG_BASE = 300
_BFRAG_BASE = 340
_ADDR = 1


def _vector_lds(base: int) -> MemAccess:
    """A 16-byte-per-lane shared load (ld.shared.v4): 4 bank rounds."""
    addresses = tuple(range(base, base + 32 * 16, 16))
    return MemAccess(MemSpace.SHARED, addresses, width_bytes=16)


def _emit_stage_loads(
    builder: ProgramBuilder,
    warp_id: int,
    buffer_index: int,
    ldg_ops: int,
    addr_reg: int,
) -> list[int]:
    """Issue the global loads of the next tile; returns the data registers.

    Loads go out at the top of the iteration so their DRAM latency overlaps
    the compute body (CUTLASS software pipelining); the matching stores are
    emitted by :func:`_emit_stage_stores` just before the barrier.
    """
    global_base = buffer_index * 65536 + warp_id * 256
    data_regs = []
    for op in range(ldg_ops):
        data = builder.fresh()
        builder.imad(addr_reg, addr_reg, 0, 0, tag="addr")
        builder.ldg(
            data,
            coalesced_access(MemSpace.GLOBAL, global_base + op * 4096),
            addr_reg,
            tag="stage_ldg",
        )
        data_regs.append(data)
    return data_regs


def _emit_stage_stores(
    builder: ProgramBuilder,
    warp_id: int,
    buffer_index: int,
    data_regs: list[int],
    addr_reg: int,
) -> None:
    """Store the staged tile into the shared-memory double buffer."""
    smem_base = (buffer_index % 2) * 8192 + warp_id * 256
    for op, data in enumerate(data_regs):
        builder.sts(
            coalesced_access(MemSpace.SHARED, smem_base + op * 4096, is_store=True),
            data,
            addr_reg,
            tag="stage_sts",
        )


def _emit_stage(
    builder: ProgramBuilder,
    warp_id: int,
    buffer_index: int,
    ldg_ops: int,
    addr_reg: int,
) -> None:
    """Load + store back to back (prologue staging, nothing to overlap)."""
    data_regs = _emit_stage_loads(builder, warp_id, buffer_index, ldg_ops, addr_reg)
    _emit_stage_stores(builder, warp_id, buffer_index, data_regs, addr_reg)


def _emit_writeback(
    builder: ProgramBuilder, warp_id: int, ops: int, addr_reg: int
) -> None:
    base = warp_id * 2048
    for op in range(ops):
        builder.stg(
            coalesced_access(
                MemSpace.GLOBAL, base + op * WARP_ACCESS_BYTES, is_store=True
            ),
            addr_reg,
            addr_reg,
            tag="writeback",
        )


def _stage_ops_per_warp(plan: TilingPlan, k_slice: int, num_warps: int) -> int:
    staged_bytes = (
        plan.tile_m * k_slice + k_slice * plan.tile_n
    ) * plan.problem.dtype.bytes
    return ceil_div(ceil_div(staged_bytes, WARP_ACCESS_BYTES), num_warps)


def _writeback_ops_per_warp(plan: TilingPlan, num_warps: int) -> int:
    writeback_bytes = plan.tile_m * plan.tile_n * 4
    return ceil_div(ceil_div(writeback_bytes, WARP_ACCESS_BYTES), num_warps)


# ---------------------------------------------------------------------------
# SIMD FP32 kernel
# ---------------------------------------------------------------------------

def build_simd_gemm_kernel(
    plan: TilingPlan, iterations: int, scheduler: str = "gto"
) -> KernelSpec:
    """CUTLASS-style SGEMM sample window over ``iterations`` K-slices."""
    if plan.k_slice != SIMD_K_SLICE:
        raise MappingError(f"SIMD kernel expects K-slice {SIMD_K_SLICE}")
    if iterations <= 0:
        raise MappingError("need at least one iteration")
    ldg_ops = _stage_ops_per_warp(plan, plan.k_slice, SIMD_WARPS)
    stg_ops = _writeback_ops_per_warp(plan, SIMD_WARPS)

    programs: list[WarpProgram] = []
    instructions: dict = {}  # shared by every warp of this kernel
    for warp_id in range(SIMD_WARPS):
        builder = ProgramBuilder(f"simd_gemm_w{warp_id}", instructions)
        builder.mov(_ADDR, 0, tag="init")
        _emit_stage(builder, warp_id, 0, ldg_ops, _ADDR)
        builder.bar(tag="prologue")
        def emit_frag_loads(iteration: int, k: int) -> None:
            """Software-pipelined fragment prefetch for K-step ``k``.

            8 A words + 8 B words per thread: two vector loads each.
            """
            smem_base = (iteration % 2) * 8192 + warp_id * 512
            a_frag = _AFRAG_BASE + (k % 2) * 8
            b_frag = _BFRAG_BASE + (k % 2) * 8
            builder.lds(a_frag, _vector_lds(smem_base + k * 512), _ADDR, tag="a_frag")
            builder.lds(
                a_frag + 1,
                _vector_lds(smem_base + k * 512 + 2048),
                _ADDR,
                tag="a_frag",
            )
            builder.lds(
                b_frag, _vector_lds(smem_base + 4096 + k * 512), _ADDR, tag="b_frag"
            )
            builder.lds(
                b_frag + 1,
                _vector_lds(smem_base + 4096 + k * 512 + 2048),
                _ADDR,
                tag="b_frag",
            )

        for iteration in range(iterations):
            staged = _emit_stage_loads(builder, warp_id, iteration + 1, ldg_ops, _ADDR)
            emit_frag_loads(iteration, 0)
            for k in range(plan.k_slice):
                # Prefetch the next K-step's fragments before consuming this
                # step's, hiding the shared-memory latency (CUTLASS-style
                # register double buffering).
                if k + 1 < plan.k_slice:
                    emit_frag_loads(iteration, k + 1)
                a_frag = _AFRAG_BASE + (k % 2) * 8
                b_frag = _BFRAG_BASE + (k % 2) * 8
                # 8x8 accumulator tile per thread: 64 FFMA per K-step.
                for i in range(8):
                    for j in range(8):
                        acc = _ACC_BASE + i * 8 + j
                        builder.ffma(
                            acc,
                            a_frag + (i % 2),
                            b_frag + (j % 2),
                            acc,
                            tag="mac",
                        )
            _emit_stage_stores(builder, warp_id, iteration + 1, staged, _ADDR)
            builder.bar(tag=f"iter{iteration}")
        _emit_writeback(builder, warp_id, stg_ops, _ADDR)
        builder.exit()
        programs.append(builder.build())
    return KernelSpec(
        name=f"simd_gemm[{plan.problem}]x{iterations}",
        programs=programs,
        scheduler=scheduler,
    )


# ---------------------------------------------------------------------------
# TensorCore kernel
# ---------------------------------------------------------------------------

def build_tc_gemm_kernel(
    plan: TilingPlan, iterations: int, scheduler: str = "gto"
) -> KernelSpec:
    """Decoupled WMMA kernel sample window over ``iterations`` K-slices.

    Per warp and K-slice: 4 fragment loads, then 4 independent WMMAs of 16
    HMMA steps each (4 sets of 4 chained accumulator steps), then the
    block-wide barrier that the strictly synchronous TC semantics require.
    """
    if plan.k_slice != TC_K_SLICE:
        raise MappingError(f"TC kernel expects K-slice {TC_K_SLICE}")
    if iterations <= 0:
        raise MappingError("need at least one iteration")
    ldg_ops = _stage_ops_per_warp(plan, plan.k_slice, TC_WARPS)
    stg_ops = _writeback_ops_per_warp(plan, TC_WARPS)

    programs: list[WarpProgram] = []
    instructions: dict = {}  # shared by every warp of this kernel
    for warp_id in range(TC_WARPS):
        builder = ProgramBuilder(f"tc_gemm_w{warp_id}", instructions)
        builder.mov(_ADDR, 0, tag="init")
        _emit_stage(builder, warp_id, 0, ldg_ops, _ADDR)
        builder.bar(tag="prologue")
        for iteration in range(iterations):
            staged = _emit_stage_loads(builder, warp_id, iteration + 1, ldg_ops, _ADDR)
            smem_base = (iteration % 2) * 8192 + warp_id * 512
            # Fragment loads: 2 A fragments + 2 B fragments (16x16 FP16),
            # double buffered by iteration parity.
            frag_regs = []
            for frag in range(4):
                reg = _AFRAG_BASE + (iteration % 2) * 4 + frag
                builder.lds(
                    reg,
                    _vector_lds(smem_base + frag * 512),
                    _ADDR,
                    tag="fragment",
                )
                frag_regs.append(reg)
            # 4 WMMAs (warp tile 32x32, K=16): 16 HMMA steps each, emitted
            # step-major so the 16 accumulator chains interleave — dependent
            # steps sit 16 instructions apart (compiler-scheduled ILP).
            for _step in range(4):
                for wmma in range(4):
                    a_reg = frag_regs[wmma % 2]
                    b_reg = frag_regs[2 + wmma // 2]
                    for step_set in range(4):
                        acc = _ACC_BASE + wmma * 4 + step_set
                        builder.hmma(acc, a_reg, b_reg, acc, tag="wmma")
            _emit_stage_stores(builder, warp_id, iteration + 1, staged, _ADDR)
            builder.bar(tag=f"iter{iteration}")
        _emit_writeback(builder, warp_id, stg_ops, _ADDR)
        builder.exit()
        programs.append(builder.build())
    return KernelSpec(
        name=f"tc_gemm[{plan.problem}]x{iterations}",
        programs=programs,
        scheduler=scheduler,
    )
