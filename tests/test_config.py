"""Configuration (Table I) tests."""

import pytest

from repro.config import (
    CpuConfig,
    DataType,
    GpuConfig,
    SmaConfig,
    SystemConfig,
    TpuConfig,
    sma_2unit,
    sma_3unit,
    system_gpu_simd,
    system_sma,
    system_tpu,
    tpu_v1,
    tpu_v2_core,
    volta_gpu,
)
from repro.errors import ConfigError


class TestGpuConfig:
    def test_table1_defaults(self):
        gpu = volta_gpu()
        assert gpu.num_sms == 80
        assert gpu.cuda_cores_per_sm == 64
        assert gpu.tensor_cores_per_sm == 4
        assert gpu.fp16_units_per_sm == 256
        assert gpu.shared_memory_banks == 32
        assert gpu.shared_memory_kb == 96
        assert gpu.register_file_kb == 256

    def test_simd_peak_matches_v100(self):
        # 80 SMs x 128 FLOP/cyc x 1.53 GHz = 15.7 FP32 TFLOPS.
        assert volta_gpu().peak_simd_tflops == pytest.approx(15.67, abs=0.1)

    def test_tc_peak(self):
        # Table I config: 256 FP16 FMA units per SM.
        assert volta_gpu().peak_tc_tflops == pytest.approx(62.7, abs=0.5)

    def test_smem_bandwidth(self):
        assert volta_gpu().shared_memory_bandwidth_bytes_per_cycle == 128

    def test_invalid_sm_count(self):
        with pytest.raises(ConfigError):
            GpuConfig(num_sms=0)

    def test_invalid_warp_size(self):
        with pytest.raises(ConfigError):
            GpuConfig(warp_size=64)

    def test_invalid_clock(self):
        with pytest.raises(ConfigError):
            GpuConfig(clock_ghz=0)


class TestSmaConfig:
    def test_fp32_unit_is_8x8(self):
        sma = SmaConfig(units_per_sm=3, dtype=DataType.FP32)
        assert sma.effective_cols == 8
        assert sma.macs_per_cycle_per_unit == 64

    def test_fp16_unit_is_8x16(self):
        sma = sma_2unit(DataType.FP16)
        assert sma.effective_cols == 16
        assert sma.macs_per_cycle_per_unit == 128

    def test_iso_flop_with_4tc(self):
        # 2 FP16 SMA units == 256 FP16 MACs == 4 TCs.
        assert sma_2unit().macs_per_cycle_per_sm == volta_gpu().fp16_units_per_sm

    def test_iso_area_3units(self):
        # 3 units == 384 FP16-unit equivalents == SIMD + 2 TC area.
        assert sma_3unit().fp16_equivalent_units == 384
        assert sma_3unit(DataType.FP32).fp16_equivalent_units == 384
        # Operating precision never changes the physical area.
        assert sma_3unit(DataType.INT8).fp16_equivalent_units == 384

    def test_int8_unit_is_8x32(self):
        """SS IV-A: 'can also be built from other data types such as INT8'."""
        sma = SmaConfig(dtype=DataType.INT8)
        assert sma.effective_cols == 32
        assert sma.macs_per_cycle_per_unit == 256

    def test_controller_storage(self):
        assert SmaConfig().controller_storage_bytes == 256

    def test_invalid_units(self):
        with pytest.raises(ConfigError):
            SmaConfig(units_per_sm=0)

    def test_invalid_banks(self):
        with pytest.raises(ConfigError):
            SmaConfig(smem_banks_for_sma=0)


class TestTpuConfig:
    def test_v2_core_peak(self):
        # 128x128 at 0.7 GHz ~ 22.9 TFLOPS (paper: 22.5 peak).
        assert tpu_v2_core().peak_tflops == pytest.approx(22.9, abs=0.5)

    def test_v1_array(self):
        assert tpu_v1().array_rows == 256

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            TpuConfig(array_rows=0)


class TestCpuConfig:
    def test_sustained_gflops(self):
        cpu = CpuConfig()
        assert cpu.sustained_gflops == pytest.approx(
            cpu.clock_ghz * cpu.flops_per_cycle * cpu.sustained_efficiency
        )

    def test_invalid_efficiency(self):
        with pytest.raises(ConfigError):
            CpuConfig(sustained_efficiency=0.0)


class TestSystemConfig:
    def test_needs_some_device(self):
        with pytest.raises(ConfigError):
            SystemConfig(name="empty", gpu=None, tpu=None)

    def test_sma_requires_gpu(self):
        with pytest.raises(ConfigError):
            SystemConfig(name="bad", tpu=tpu_v2_core(), sma=sma_2unit())

    def test_system_sma_units(self):
        assert system_sma(2).sma.units_per_sm == 2
        assert system_sma(3).sma.units_per_sm == 3
        assert system_sma(4).sma.units_per_sm == 4

    def test_simd_system_has_gpu(self):
        assert system_gpu_simd().gpu is not None

    def test_tpu_system(self):
        assert system_tpu().tpu is not None
        assert system_tpu().gpu is None


class TestDataType:
    def test_bytes(self):
        assert DataType.FP32.bytes == 4
        assert DataType.FP16.bytes == 2
        assert DataType.INT8.bytes == 1

    def test_fp16_equivalents(self):
        assert DataType.FP32.fp16_equivalents == 2
        assert DataType.FP16.fp16_equivalents == 1
