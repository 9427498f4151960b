"""What every GPU platform spec builds, pinned name by name.

The paper's Volta platforms (``gpu-simd``, ``gpu-tc``, ``sma``) and each
catalog GPU's flavors (``D``, ``simd@D``, ``sma@D``) register through one
path. This table pins what each spec resolves to: the platform class and
its ``name``, the whole frozen ``SystemConfig`` (its ``name`` is part of
every SM window and timing key), the interference matrix, the GEMM
``(system, backend)`` wiring and the catalog fingerprint.
"""

import pytest

from repro.api.registry import build_platform, gemm_config
from repro.catalog.loader import catalog_fingerprint, get_device
from repro.config import DataType, GpuConfig, SmaConfig, SystemConfig
from repro.platforms import GpuSimdPlatform, GpuSmaPlatform, GpuTcPlatform

FP16, FP32 = DataType.FP16, DataType.FP32

#: spec -> (class, platform name, system name, SMA units and dtype or
#: None, catalog device or None, GEMM backend).
IDENTITY = {
    "gpu-simd": (GpuSimdPlatform, "gpu-simd", "gpu-simd", None, None, "simd"),
    "simd": (GpuSimdPlatform, "gpu-simd", "gpu-simd", None, None, "simd"),
    "gpu-tc": (GpuTcPlatform, "gpu-4tc", "gpu-4tc", None, None, "tc"),
    "tc": (GpuTcPlatform, "gpu-4tc", "gpu-4tc", None, None, "tc"),
    "gpu-4tc": (GpuTcPlatform, "gpu-4tc", "gpu-4tc", None, None, "tc"),
    "sma": (GpuSmaPlatform, "gpu-3sma", "gpu-3sma", (3, FP16), None, "sma"),
    "gpu-sma": (GpuSmaPlatform, "gpu-3sma", "gpu-3sma", (3, FP16), None, "sma"),
    "sma:2": (GpuSmaPlatform, "gpu-2sma", "gpu-2sma", (2, FP16), None, "sma"),
    "sma:3,fp32": (
        GpuSmaPlatform, "gpu-3sma", "gpu-3sma", (3, FP32), None, "sma"
    ),
    "sma:4": (GpuSmaPlatform, "gpu-4sma", "gpu-4sma", (4, FP16), None, "sma"),
    "v100": (GpuTcPlatform, "gpu-4tc", "v100-4tc", None, "v100", "tc"),
    "tc@v100": (GpuTcPlatform, "gpu-4tc", "v100-4tc", None, "v100", "tc"),
    "volta": (GpuTcPlatform, "gpu-4tc", "v100-4tc", None, "v100", "tc"),
    "simd@v100": (
        GpuSimdPlatform, "gpu-simd", "v100-simd", None, "v100", "simd"
    ),
    "sma@v100:2": (
        GpuSmaPlatform, "gpu-2sma", "v100-2sma", (2, FP16), "v100", "sma"
    ),
    "sma@a100:3,fp32": (
        GpuSmaPlatform, "gpu-3sma", "a100-3sma", (3, FP32), "a100", "sma"
    ),
    "simd@h100": (
        GpuSimdPlatform, "gpu-simd", "h100-simd", None, "h100", "simd"
    ),
}

#: Content fingerprints of the default catalog's devices.
FINGERPRINTS = {
    "v100": "1baba01ed59c176a",
    "a100": "721c4127e7f55ac9",
    "h100": "a7588f4714b6f56c",
}


@pytest.mark.parametrize("spec", list(IDENTITY))
def test_spec_builds_its_pinned_platform(spec):
    cls, name, system_name, sma, device, backend = IDENTITY[spec]
    spec_device = get_device(device) if device is not None else None
    system = SystemConfig(
        name=system_name,
        gpu=spec_device.gpu if spec_device is not None else GpuConfig(),
        sma=(
            SmaConfig(units_per_sm=sma[0], dtype=sma[1])
            if sma is not None else None
        ),
    )
    platform = build_platform(spec)
    assert type(platform) is cls
    assert platform.name == name
    assert platform.system == system
    assert platform.interference == (
        spec_device.interference if spec_device is not None else None
    )
    assert gemm_config(spec) == (system, backend)
    assert catalog_fingerprint(spec) == FINGERPRINTS.get(device)
