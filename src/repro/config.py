"""Architecture configurations (paper Table I) for every simulated platform.

The paper's baseline is an NVIDIA Volta V100: 80 SMs, each with 64 FP32 CUDA
cores, 4 TensorCores (256 FP16 MAC units total), 32-bank shared memory
configurable up to 96 KB, and a 256 KB register file. SMA keeps those
resources and re-purposes the MAC units as three 8x8 FP32 (or 8x16 FP16)
systolic arrays per SM.

Everything downstream (pipeline simulators, energy accounting, experiment
harnesses) reads the numbers from these frozen dataclasses; no other module
hard-codes machine parameters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError


class DataType(enum.Enum):
    """Numeric formats understood by the MAC-unit models."""

    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"

    @property
    def bytes(self) -> int:
        return _DTYPE_BYTES[self._value_]

    @property
    def fp16_equivalents(self) -> int:
        """How many FP16 MAC units one MAC of this type is worth (area)."""
        return _DTYPE_FP16_EQUIVALENTS[self._value_]


# Keyed by the format's value: a lookup hashes a str, not an enum member.
_DTYPE_BYTES = {"fp32": 4, "fp16": 2, "int8": 1}
_DTYPE_FP16_EQUIVALENTS = {"fp32": 2, "fp16": 1, "int8": 1}


@dataclass(frozen=True)
class GpuConfig:
    """A Volta-like streaming-multiprocessor based GPU (paper Table I)."""

    name: str = "volta-v100"
    num_sms: int = 80
    clock_ghz: float = 1.53
    warp_size: int = 32
    max_warps_per_sm: int = 64
    schedulers_per_sm: int = 4

    # Compute resources per SM.
    cuda_cores_per_sm: int = 64          # FP32 FMA units
    tensor_cores_per_sm: int = 4
    fp16_units_per_tensor_core: int = 64  # 4 TCs -> 256 FP16 MACs per SM

    # Memory resources per SM.
    shared_memory_banks: int = 32
    shared_memory_bank_bytes: int = 4     # 32-bit word per bank per cycle
    shared_memory_kb: int = 96
    register_file_kb: int = 256
    register_file_banks: int = 8
    register_bank_width_bytes: int = 128  # one 32-bit value per lane per warp
    operand_collectors: int = 8

    # Cache / DRAM.
    l1_cache_kb: int = 128
    l2_cache_mb: int = 6
    dram_bandwidth_gbps: float = 900.0    # HBM2
    dram_latency_cycles: int = 400
    l2_latency_cycles: int = 190
    l1_latency_cycles: int = 28
    shared_memory_latency_cycles: int = 19

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigError(f"num_sms must be positive, got {self.num_sms}")
        if self.warp_size != 32:
            raise ConfigError("only the CUDA warp size of 32 is supported")
        if self.shared_memory_banks <= 0:
            raise ConfigError("shared_memory_banks must be positive")
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")

    # -- Derived peak throughput -------------------------------------------------
    @property
    def fp16_units_per_sm(self) -> int:
        return self.tensor_cores_per_sm * self.fp16_units_per_tensor_core

    @property
    def simd_flops_per_cycle_per_sm(self) -> int:
        """FP32 FMA counts as 2 FLOPs."""
        return 2 * self.cuda_cores_per_sm

    @property
    def tc_flops_per_cycle_per_sm(self) -> int:
        """FP16 FMA counts as 2 FLOPs."""
        return 2 * self.fp16_units_per_sm

    @property
    def peak_simd_tflops(self) -> float:
        return self.num_sms * self.simd_flops_per_cycle_per_sm * self.clock_ghz / 1e3

    @property
    def peak_tc_tflops(self) -> float:
        return self.num_sms * self.tc_flops_per_cycle_per_sm * self.clock_ghz / 1e3

    @property
    def shared_memory_bandwidth_bytes_per_cycle(self) -> int:
        return self.shared_memory_banks * self.shared_memory_bank_bytes


@dataclass(frozen=True)
class SmaConfig:
    """SMA units layered on a :class:`GpuConfig` (paper SS IV-A).

    Each SMA unit is an 8x8 FP32 systolic array built from 64 FP32-equivalent
    MAC units; in FP16 mode the same area provides an 8x16 array. Three units
    per SM consume the area of 64 CUDA cores + 4 TensorCores (384 FP16-unit
    equivalents).
    """

    units_per_sm: int = 3
    array_rows: int = 8           # K dimension fed from shared memory
    array_cols: int = 8           # N dimension, per FP32 unit
    dtype: DataType = DataType.FP32
    smem_banks_for_sma: int = 8   # banks reserved to stream matrix A
    rf_banks_for_sma: int = 1     # banks used to write matrix C
    controller_storage_bytes: int = 256  # 8x8B Ain + 24x8B Cout latches
    reconfiguration_cycles: int = 8      # temporal mode-switch cost

    def __post_init__(self) -> None:
        if self.units_per_sm <= 0:
            raise ConfigError("units_per_sm must be positive")
        if self.array_rows <= 0 or self.array_cols <= 0:
            raise ConfigError("array dimensions must be positive")
        if self.smem_banks_for_sma <= 0:
            raise ConfigError("smem_banks_for_sma must be positive")

    @property
    def effective_cols(self) -> int:
        """Array width after precision packing (SS IV-A).

        One FP32 MAC lane splits into two FP16 lanes (8x8 -> 8x16) or four
        INT8 lanes (8x8 -> 8x32), following the paper's "can also be built
        from other data types such as INT8".
        """
        packing = {DataType.FP32: 1, DataType.FP16: 2, DataType.INT8: 4}
        return self.array_cols * packing[self.dtype]

    @property
    def macs_per_cycle_per_unit(self) -> int:
        return self.array_rows * self.effective_cols

    @property
    def macs_per_cycle_per_sm(self) -> int:
        return self.units_per_sm * self.macs_per_cycle_per_unit

    @property
    def flops_per_cycle_per_sm(self) -> int:
        return 2 * self.macs_per_cycle_per_sm

    @property
    def fp16_equivalent_units(self) -> int:
        """Area in FP16-MAC equivalents (for iso-area comparisons).

        The physical array is ``rows x cols`` FP32-capable MACs regardless
        of the operating precision, so the area is 2 FP16-equivalents per
        physical lane (SS IV-A precision pairing).
        """
        per_unit = self.array_rows * self.array_cols * 2
        return self.units_per_sm * per_unit


@dataclass(frozen=True)
class TpuConfig:
    """A TPU-like weight-stationary systolic accelerator core."""

    name: str = "tpu-v2-core"
    array_rows: int = 128
    array_cols: int = 128
    clock_ghz: float = 0.7
    on_chip_buffer_mb: int = 24
    weight_fifo_depth: int = 4
    host_transfer_gbps: float = 8.0   # effective PCIe payload bandwidth
    dram_bandwidth_gbps: float = 600.0

    def __post_init__(self) -> None:
        if self.array_rows <= 0 or self.array_cols <= 0:
            raise ConfigError("array dimensions must be positive")
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")

    @property
    def macs_per_cycle(self) -> int:
        return self.array_rows * self.array_cols

    @property
    def peak_tflops(self) -> float:
        return 2 * self.macs_per_cycle * self.clock_ghz / 1e3


@dataclass(frozen=True)
class CpuConfig:
    """A single general-purpose host core (used for the CRF in Fig 3)."""

    name: str = "host-cpu-core"
    clock_ghz: float = 2.5
    flops_per_cycle: int = 16          # one AVX2 FMA pipe on FP32
    sustained_efficiency: float = 0.35  # achieved / peak on irregular code
    dram_bandwidth_gbps: float = 20.0

    def __post_init__(self) -> None:
        if not (0.0 < self.sustained_efficiency <= 1.0):
            raise ConfigError("sustained_efficiency must be in (0, 1]")

    @property
    def sustained_gflops(self) -> float:
        return (
            self.clock_ghz * self.flops_per_cycle * self.sustained_efficiency
        )


@dataclass(frozen=True)
class SystemConfig:
    """A full platform: GPU (optionally with SMA units), or TPU + host."""

    name: str
    gpu: GpuConfig | None = None
    sma: SmaConfig | None = None
    tpu: TpuConfig | None = None
    cpu: CpuConfig = field(default_factory=CpuConfig)

    def __post_init__(self) -> None:
        if self.gpu is None and self.tpu is None:
            raise ConfigError("a system needs at least a GPU or a TPU")
        if self.sma is not None and self.gpu is None:
            raise ConfigError("SMA units require a GPU substrate")


# ---------------------------------------------------------------------------
# Named configurations used throughout the evaluation.
# ---------------------------------------------------------------------------

def volta_gpu() -> GpuConfig:
    """The paper's baseline Volta GPU (Table I)."""
    return GpuConfig()


def sma_2unit(dtype: DataType = DataType.FP16) -> SmaConfig:
    """Two SMA units per SM: iso-FLOP with 4 TensorCores (256 FP16 units)."""
    return SmaConfig(units_per_sm=2, dtype=dtype)


def sma_3unit(dtype: DataType = DataType.FP16) -> SmaConfig:
    """Three SMA units per SM: iso-area with SIMD + TC (384 FP16 units)."""
    return SmaConfig(units_per_sm=3, dtype=dtype)


def system_gpu_simd() -> SystemConfig:
    """SIMD-only execution on the baseline GPU (no TC, no SMA)."""
    return SystemConfig(name="gpu-simd", gpu=volta_gpu())


def system_gpu_4tc() -> SystemConfig:
    """The baseline GPU using its 4 TensorCores per SM for GEMM."""
    return SystemConfig(name="gpu-4tc", gpu=volta_gpu())


def system_sma(units: int = 3, dtype: DataType = DataType.FP16) -> SystemConfig:
    """A GPU whose MAC units are SMA-reconfigurable (2-SMA or 3-SMA)."""
    return SystemConfig(
        name=f"gpu-{units}sma",
        gpu=volta_gpu(),
        sma=SmaConfig(units_per_sm=units, dtype=dtype),
    )


def tpu_v2_core() -> TpuConfig:
    """One core of a cloud TPU-v2 (128x128 array, 22.9 peak TFLOPS)."""
    return TpuConfig()


def tpu_v1() -> TpuConfig:
    """The TPU-v1 (256x256 INT8 array) used for dataflow discussion."""
    return TpuConfig(name="tpu-v1", array_rows=256, array_cols=256, clock_ghz=0.7)


def system_tpu() -> SystemConfig:
    """TPU core plus its host CPU (for unsupported ops and transfers)."""
    return SystemConfig(name="tpu", tpu=tpu_v2_core())

