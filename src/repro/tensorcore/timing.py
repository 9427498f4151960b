"""Analytic TensorCore GEMM timing (used for the Fig 1 efficiency sweep).

The cycle-level pipeline (``repro.gpu.sm`` fed by ``repro.gemm.traces``)
is the reference timing model; this module provides a closed-form estimate
of the same structural limits so that the Fig 1 sweep (matrices up to
2^14) stays cheap. The estimate has three multiplicative terms:

* **register-bandwidth bound** — each HMMA reads 8 / writes 4 warp-wide
  operands; the operand-collector read ports sustain fewer, capping
  throughput (paper SS II-A: "high register bandwidth consumption");
* **synchronization overhead** — the decoupled, fixed-shape (4x4x4)
  execution model costs a barrier per tile iteration;
* **tiling / wave quantization** — partial 128x128 output tiles and
  partial waves over the 80 SMs idle compute at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.mathutil import ceil_div
from repro.config import GpuConfig
from repro.errors import SimulationError
from repro.gpu.gpu import DEFAULT_LAUNCH_OVERHEAD_CYCLES

#: Warp-wide register operands read (A pair, B pair, 4 accumulators) and
#: written (4 accumulators) by one HMMA step.
HMMA_REG_READS = 8
HMMA_REG_WRITES = 4
#: Cycles of barrier/fragment-shuffle overhead per warp-tile K-iteration.
SYNC_OVERHEAD_CYCLES = 24.0
#: Steady-state K-iteration length of a 64x64 warp tile (256 HMMA steps).
WARP_TILE_HMMAS_PER_KSLICE = 16.0


@dataclass(frozen=True)
class TcGemmEstimate:
    """Closed-form TC GEMM timing for one (M, N, K) problem."""

    m: int
    n: int
    k: int
    cycles: float
    efficiency: float
    rf_bound: float
    sync_factor: float
    quantization: float

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k


def _register_bandwidth_bound(
    config: GpuConfig, collector_efficiency: float
) -> float:
    """Fraction of peak TC throughput the RF ports can feed.

    Full speed needs one HMMA issued per cycle per SM (4 TCs x 4-cycle
    occupancy). Each HMMA wants 8 operand reads and 4 writes against
    ``banks * efficiency`` read ports and half as many write ports.
    """
    read_ports = config.register_file_banks * collector_efficiency
    write_ports = read_ports / 2.0
    read_bound = read_ports / HMMA_REG_READS
    write_bound = write_ports / HMMA_REG_WRITES
    return min(1.0, read_bound, write_bound)


def estimate_tc_gemm_efficiency(
    m: int,
    n: int,
    k: int,
    config: GpuConfig | None = None,
    collector_efficiency: float = 0.95,
    tile_m: int = 128,
    tile_n: int = 128,
) -> TcGemmEstimate:
    """Estimate FLOPS efficiency of an (M, N, K) GEMM on the 4-TC SM."""
    if m <= 0 or n <= 0 or k <= 0:
        raise SimulationError("GEMM dims must be positive")
    config = config or GpuConfig()

    rf_bound = _register_bandwidth_bound(config, collector_efficiency)
    # Steady-state overhead beyond the RF bound: fragment loads, issue
    # burstiness and scoreboard bubbles. Calibrated once against the
    # cycle-level pipeline (0.686 measured / 0.95 collector bound).
    rf_bound *= 0.72

    # Sync: one block-wide barrier per K-slice; at tiny K it dominates.
    kslices = max(1.0, k / 16.0)
    productive = WARP_TILE_HMMAS_PER_KSLICE / rf_bound
    sync_factor = productive / (productive + SYNC_OVERHEAD_CYCLES / kslices)

    # Tile and wave quantization.
    tiles_m = ceil_div(m, tile_m)
    tiles_n = ceil_div(n, tile_n)
    tile_util = (m * n) / float(tiles_m * tile_m * tiles_n * tile_n)
    tbs = tiles_m * tiles_n
    waves = ceil_div(tbs, config.num_sms)
    wave_util = tbs / float(waves * config.num_sms)
    quantization = tile_util * wave_util

    peak_macs_per_cycle = config.fp16_units_per_sm * config.num_sms
    ideal_cycles = (m * n * k) / peak_macs_per_cycle
    efficiency = rf_bound * sync_factor * quantization
    cycles = ideal_cycles / max(efficiency, 1e-9)
    cycles += DEFAULT_LAUNCH_OVERHEAD_CYCLES
    # Launch overhead folds back into the reported efficiency.
    efficiency = ideal_cycles / cycles
    return TcGemmEstimate(
        m=m,
        n=n,
        k=k,
        cycles=cycles,
        efficiency=efficiency,
        rf_bound=rf_bound,
        sync_factor=sync_factor,
        quantization=quantization,
    )


def wmma_schedule(
    warp_tile_m: int = 64, warp_tile_n: int = 64, k_slice: int = 16
) -> dict[str, int]:
    """Static schedule facts for one warp tile's K-slice.

    Returns the number of WMMA fragment ops, HMMA steps, and shared-memory
    fragment loads the trace generator must emit per K-slice.
    """
    if warp_tile_m % 16 or warp_tile_n % 16 or k_slice % 16:
        raise SimulationError("warp tile dims must be multiples of 16")
    wmma_rows = warp_tile_m // 16
    wmma_cols = warp_tile_n // 16
    wmmas = wmma_rows * wmma_cols * (k_slice // 16)
    # One 16x16 FP16 fragment = 512 B = 4 warp-wide 128 B shared loads.
    a_fragment_loads = wmma_rows * (k_slice // 16) * 4
    b_fragment_loads = wmma_cols * (k_slice // 16) * 4
    return {
        "wmmas": wmmas,
        "hmma_steps": wmmas * 16,
        "a_fragment_loads": a_fragment_loads,
        "b_fragment_loads": b_fragment_loads,
        "hmma_reg_reads": wmmas * 16 * HMMA_REG_READS,
        "hmma_reg_writes": wmmas * 16 * HMMA_REG_WRITES,
    }
