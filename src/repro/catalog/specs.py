"""Named real-hardware device specs: frozen data, JSON round-trip.

A :class:`DeviceSpec` is everything the simulator needs to instantiate a
platform for one physical part: the microarchitectural config
(:class:`~repro.config.GpuConfig` or :class:`~repro.config.TpuConfig`),
the device's measured :class:`~repro.catalog.interference.InterferenceMatrix`,
and fleet-level metadata (die area, TDP) that reports rank against.
Specs are pure data — platform *behavior* stays in the platform classes;
the catalog only parameterizes them — so adding a device is a JSON file,
not a code change.

The default entries pin two invariants the golden tests enforce:

* ``v100``'s GPU config is exactly :class:`~repro.config.GpuConfig`'s
  defaults (the paper's Volta baseline), and ``tpu-v2``'s TPU config is
  exactly :class:`~repro.config.TpuConfig`'s defaults — so catalog-built
  platforms reproduce the hand-coded ones bit-for-bit;
* every spec's :meth:`DeviceSpec.fingerprint` is a content hash of its
  canonical JSON, which rides inside
  :class:`~repro.api.results.SimRequest` so stores and cluster dispatch
  can detect catalog divergence.

Non-default numbers (A100/H100/Orin, TPU v1/v3) come from vendor
datasheets and the TPU ISCA'17 paper; die area and TDP are board-level
figures where die-level ones are not public.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.catalog.interference import InterferenceMatrix
from repro.common.codec import WHEN_SET, Codec, decode
from repro.config import GpuConfig, TpuConfig
from repro.errors import ConfigError

_FAMILIES = ("gpu", "tpu")


def _unknown_keys(block, config: type) -> list[str]:
    if not isinstance(block, dict):
        return []
    return sorted(set(block) - {item.name for item in dataclasses.fields(config)})


@dataclasses.dataclass(frozen=True)
class DeviceSpec(Codec):
    """One named physical part the simulator can instantiate platforms for.

    ``family`` selects the platform side (``"gpu"`` specs carry a
    :class:`GpuConfig` and register TC/SIMD/SMA platforms; ``"tpu"`` specs
    carry a :class:`TpuConfig`). ``area_mm2``/``tdp_w`` are report
    metadata, not simulation inputs. ``aliases`` are extra registry names
    (``"volta"`` for ``v100``).
    """

    name: str
    family: str
    description: str = ""
    vendor: str = ""
    year: int = 0
    area_mm2: float = 0.0
    tdp_w: float = 0.0
    gpu: GpuConfig | None = dataclasses.field(default=None, metadata=WHEN_SET)
    tpu: TpuConfig | None = dataclasses.field(default=None, metadata=WHEN_SET)
    interference: InterferenceMatrix = InterferenceMatrix()
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.lower().strip():
            raise ConfigError(
                f"device name must be non-empty lowercase, got {self.name!r}"
            )
        if self.family not in _FAMILIES:
            raise ConfigError(
                f"device family must be one of {_FAMILIES}, got"
                f" {self.family!r}"
            )
        if self.family == "gpu" and (self.gpu is None or self.tpu is not None):
            raise ConfigError(
                f"gpu-family device {self.name!r} needs a GpuConfig and no"
                " TpuConfig"
            )
        if self.family == "tpu" and (self.tpu is None or self.gpu is not None):
            raise ConfigError(
                f"tpu-family device {self.name!r} needs a TpuConfig and no"
                " GpuConfig"
            )
        if not isinstance(self.interference, InterferenceMatrix):
            raise ConfigError(
                f"device {self.name!r} interference must be an"
                f" InterferenceMatrix, got {self.interference!r}"
            )
        if self.area_mm2 < 0 or self.tdp_w < 0:
            raise ConfigError(
                f"device {self.name!r} area/TDP must be non-negative"
            )
        object.__setattr__(
            self, "aliases", tuple(alias.lower() for alias in self.aliases)
        )

    # -- JSON round-trip ---------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "DeviceSpec":
        # Hand-written check first: a catalog file may carry no unknown
        # key, also inside its config blocks, where the codec ignores them.
        if isinstance(data, dict):
            name = data.get("name", "?")
            if unknown := _unknown_keys(data, cls):
                raise ConfigError(
                    f"device spec {name!r} has unknown keys {unknown}"
                )
            for block, config in (("gpu", GpuConfig), ("tpu", TpuConfig)):
                if unknown := _unknown_keys(data.get(block), config):
                    raise ConfigError(
                        f"device spec {name!r} has a malformed {block} block:"
                        f" unknown keys {unknown}"
                    )
        return decode(cls, data)

    def fingerprint(self) -> str:
        """Short content hash of the spec's canonical JSON.

        Identical specs fingerprint identically on every host, so the
        cluster protocol can reject shards when client and server
        catalogs diverge without shipping whole specs over the wire.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# -- Default catalog entries ---------------------------------------------------------
#
# The tc->simd factors are the measured co-run stretch the paper's fig.
# reports for a TensorCore GEMM saturating the register-file ports while
# a SIMD kernel runs alongside; the transfer->host factors model DMA
# engines stealing host-CPU cycles during staging.

V100 = DeviceSpec(
    name="v100",
    family="gpu",
    description="NVIDIA Tesla V100 (Volta, SXM2) — the paper's baseline",
    vendor="nvidia",
    year=2017,
    area_mm2=815.0,
    tdp_w=300.0,
    # Exactly GpuConfig() — the golden tests pin catalog-built platforms
    # to the hand-coded Volta ones bit-for-bit.
    gpu=GpuConfig(),
    interference=InterferenceMatrix(
        entries=(
            ("tc", "simd", 0.62),
            ("transfer", "host", 0.08),
            # Reverse direction of the SM-partition pair, plus copy-engine
            # pressure on the SIMD lanes (measured co-run slowdowns).
            ("simd", "tc", 0.07),
            ("transfer", "simd", 0.11),
        )
    ),
    aliases=("volta", "tesla-v100"),
)

A100 = DeviceSpec(
    name="a100",
    family="gpu",
    description="NVIDIA A100 (Ampere, SXM4 80GB)",
    vendor="nvidia",
    year=2020,
    area_mm2=826.0,
    tdp_w=400.0,
    gpu=GpuConfig(
        name="ampere-a100",
        num_sms=108,
        clock_ghz=1.41,
        cuda_cores_per_sm=64,
        tensor_cores_per_sm=4,
        fp16_units_per_tensor_core=256,
        shared_memory_kb=164,
        l1_cache_kb=192,
        l2_cache_mb=40,
        dram_bandwidth_gbps=2039.0,
        dram_latency_cycles=466,
        l2_latency_cycles=200,
        l1_latency_cycles=33,
    ),
    interference=InterferenceMatrix(
        entries=(
            ("tc", "simd", 0.48),
            ("transfer", "host", 0.06),
            ("simd", "tc", 0.05),
            ("transfer", "simd", 0.09),
        )
    ),
    aliases=("ampere",),
)

H100 = DeviceSpec(
    name="h100",
    family="gpu",
    description="NVIDIA H100 (Hopper, SXM5)",
    vendor="nvidia",
    year=2022,
    area_mm2=814.0,
    tdp_w=700.0,
    gpu=GpuConfig(
        name="hopper-h100",
        num_sms=132,
        clock_ghz=1.83,
        cuda_cores_per_sm=128,
        tensor_cores_per_sm=4,
        fp16_units_per_tensor_core=512,
        shared_memory_kb=228,
        l1_cache_kb=256,
        l2_cache_mb=50,
        dram_bandwidth_gbps=3350.0,
        dram_latency_cycles=500,
        l2_latency_cycles=210,
        l1_latency_cycles=33,
    ),
    interference=InterferenceMatrix(
        entries=(
            ("tc", "simd", 0.35),
            ("transfer", "host", 0.05),
            ("simd", "tc", 0.04),
            ("transfer", "simd", 0.07),
        )
    ),
    aliases=("hopper",),
)

ORIN = DeviceSpec(
    name="orin",
    family="gpu",
    description="NVIDIA Jetson AGX Orin (Ampere iGPU, edge part)",
    vendor="nvidia",
    year=2022,
    area_mm2=455.0,
    tdp_w=60.0,
    gpu=GpuConfig(
        name="jetson-orin",
        num_sms=16,
        clock_ghz=1.3,
        cuda_cores_per_sm=128,
        tensor_cores_per_sm=4,
        fp16_units_per_tensor_core=256,
        shared_memory_kb=164,
        l1_cache_kb=192,
        l2_cache_mb=4,
        dram_bandwidth_gbps=204.8,
        dram_latency_cycles=350,
        l2_latency_cycles=180,
        l1_latency_cycles=33,
    ),
    interference=InterferenceMatrix(
        # The shared LPDDR bus makes edge co-run contention far harsher.
        entries=(
            ("tc", "simd", 0.74),
            ("transfer", "host", 0.15),
            ("simd", "tc", 0.12),
            ("transfer", "simd", 0.20),
        )
    ),
    aliases=("jetson-orin", "agx-orin"),
)

TPU_V1 = DeviceSpec(
    name="tpu-v1",
    family="tpu",
    description="Google TPU v1 (inference, 256x256 MXU, ISCA'17)",
    vendor="google",
    year=2015,
    area_mm2=331.0,
    tdp_w=75.0,
    tpu=TpuConfig(
        name="tpu-v1",
        array_rows=256,
        array_cols=256,
        clock_ghz=0.7,
        on_chip_buffer_mb=28,
        weight_fifo_depth=4,
        host_transfer_gbps=8.0,
        dram_bandwidth_gbps=34.0,
    ),
    interference=InterferenceMatrix(
        # PCIe feed-and-drain contends both ways on the v1's narrow link.
        entries=(("transfer", "host", 0.22), ("host", "transfer", 0.09))
    ),
    aliases=("v1",),
)

TPU_V2 = DeviceSpec(
    name="tpu-v2",
    family="tpu",
    description="Google TPU v2 core (128x128 MXU) — the paper's TPU",
    vendor="google",
    year=2017,
    area_mm2=611.0,
    tdp_w=280.0,
    # Exactly TpuConfig() — golden-pinned to the hand-coded paper TPU.
    tpu=TpuConfig(),
    interference=InterferenceMatrix(
        entries=(("transfer", "host", 0.12), ("host", "transfer", 0.05))
    ),
    aliases=("v2",),
)

TPU_V3 = DeviceSpec(
    name="tpu-v3",
    family="tpu",
    description="Google TPU v3 core (128x128 MXU, HBM)",
    vendor="google",
    year=2018,
    area_mm2=648.0,
    tdp_w=450.0,
    tpu=TpuConfig(
        name="tpu-v3-core",
        array_rows=128,
        array_cols=128,
        clock_ghz=0.94,
        on_chip_buffer_mb=32,
        weight_fifo_depth=4,
        host_transfer_gbps=16.0,
        dram_bandwidth_gbps=900.0,
    ),
    interference=InterferenceMatrix(
        entries=(("transfer", "host", 0.10), ("host", "transfer", 0.04))
    ),
    aliases=("v3",),
)

#: Generation order — device ranges (``v100..h100``) expand along this.
DEFAULT_DEVICES = (V100, A100, H100, ORIN, TPU_V1, TPU_V2, TPU_V3)


__all__ = [
    "A100",
    "DEFAULT_DEVICES",
    "DeviceSpec",
    "H100",
    "ORIN",
    "TPU_V1",
    "TPU_V2",
    "TPU_V3",
    "V100",
]
