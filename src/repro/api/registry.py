"""String-addressable registries for platforms and zoo models.

Every simulation consumer used to hand-construct ``GemmExecutor`` /
``Platform`` / ``build_*`` objects. The registries make hardware configs
and workloads declarative instead: a platform is a spec string like
``"gpu-simd"``, ``"sma:3"`` or ``"sma:2,fp32"``, a model is ``"mask_rcnn"``
or ``"deeplab:nocrf"``, and :class:`repro.api.session.Session` resolves
both by name.

Spec grammar::

    NAME[:ARG[,ARG...]]

``NAME`` is case-insensitive; arguments are passed to the registered
factory, which validates them (``"sma:0"`` and ``"sma:banana"`` both raise
:class:`~repro.errors.ConfigError`). New platforms and models self-register
with the :func:`register_platform` / :func:`register_model` decorators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.config import (
    DataType,
    GpuConfig,
    SmaConfig,
    SystemConfig,
    volta_gpu,
)
from repro.dnn.graph import LayerGraph
from repro.dnn.zoo import (
    build_alexnet,
    build_deeplab,
    build_googlenet,
    build_goturn,
    build_mask_rcnn,
    build_vgg_a,
)
from repro.errors import ConfigError
from repro.gemm.cache import TimingCache
from repro.platforms.base import Platform
from repro.platforms.cpu import CpuPlatform
from repro.platforms.gpu_simd import GpuSimdPlatform
from repro.platforms.gpu_sma import GpuSmaPlatform
from repro.platforms.gpu_tc import GpuTcPlatform
from repro.platforms.tpu_platform import TpuPlatform

# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def parse_spec(spec: str) -> tuple[str, tuple[str, ...]]:
    """Split ``"name:arg1,arg2"`` into ``("name", ("arg1", "arg2"))``."""
    if not isinstance(spec, str) or not spec.strip():
        raise ConfigError(f"empty spec {spec!r}; expected 'name[:args]'")
    name, sep, rest = spec.strip().partition(":")
    name = name.strip().lower()
    if not name:
        raise ConfigError(f"spec {spec!r} has no name before ':'")
    if not sep:
        return name, ()
    args = tuple(part.strip().lower() for part in rest.split(","))
    if any(not part for part in args):
        raise ConfigError(f"spec {spec!r} has an empty argument")
    return name, args


def _int_arg(label: str, value: str, minimum: int = 1) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise ConfigError(
            f"{label}: expected an integer, got {value!r}"
        ) from None
    if parsed < minimum:
        raise ConfigError(f"{label}: must be >= {minimum}, got {parsed}")
    return parsed


_DTYPES = {dtype.value: dtype for dtype in DataType}


def _dtype_arg(label: str, value: str) -> DataType:
    dtype = _DTYPES.get(value)
    if dtype is None:
        raise ConfigError(
            f"{label}: unknown dtype {value!r}; one of {sorted(_DTYPES)}"
        )
    return dtype


def _no_args(name: str, args: tuple[str, ...]) -> None:
    if args:
        raise ConfigError(f"{name!r} takes no spec arguments, got {args}")


# ---------------------------------------------------------------------------
# Platform registry
# ---------------------------------------------------------------------------

#: A platform factory: ``factory(*spec_args, cache=..., **kwargs)``.
PlatformFactory = Callable[..., Platform]

#: Maps spec args to the ``(system, backend)`` pair a GemmExecutor needs.
GemmConfigFn = Callable[..., tuple[SystemConfig, str]]


@dataclass(frozen=True)
class PlatformEntry:
    """One registered platform family."""

    name: str
    factory: PlatformFactory
    description: str = ""
    gemm: GemmConfigFn | None = None
    aliases: tuple[str, ...] = ()


_PLATFORMS: dict[str, PlatformEntry] = {}
_PLATFORM_ALIASES: dict[str, str] = {}


def register_platform(
    name: str,
    *,
    description: str = "",
    aliases: tuple[str, ...] = (),
    gemm: GemmConfigFn | None = None,
) -> Callable[[PlatformFactory], PlatformFactory]:
    """Class/function decorator that registers a platform factory.

    ``gemm`` optionally maps the spec arguments to a ``(system, backend)``
    pair so the Session can bench raw GEMMs on the platform's executor.
    """

    def decorator(factory: PlatformFactory) -> PlatformFactory:
        for key in (name, *aliases):
            if key in _PLATFORMS or key in _PLATFORM_ALIASES:
                raise ConfigError(f"platform {key!r} already registered")
        _PLATFORMS[name] = PlatformEntry(
            name=name,
            factory=factory,
            description=description,
            gemm=gemm,
            aliases=tuple(aliases),
        )
        for alias in aliases:
            _PLATFORM_ALIASES[alias] = name
        return factory

    return decorator


def unregister_platform(name: str) -> None:
    """Remove a registered platform (primarily for tests)."""
    entry = _PLATFORMS.pop(name, None)
    if entry is not None:
        for alias in entry.aliases:
            _PLATFORM_ALIASES.pop(alias, None)


def _ensure_catalog() -> None:
    """Install the default device catalog (lazy, idempotent).

    Imported at call time, not module load: the catalog loader imports
    this registry to register its platform factories, so a module-level
    import in either direction would cycle.
    """
    from repro.catalog import loader

    loader.install_default_catalog()


def platform_entry(spec: str) -> tuple[PlatformEntry, tuple[str, ...]]:
    """Resolve a spec string to its registry entry and parsed arguments."""
    name, args = parse_spec(spec)
    resolved = _PLATFORM_ALIASES.get(name, name)
    entry = _PLATFORMS.get(resolved)
    if entry is None:
        # Catalog devices register lazily; retry after installing them.
        _ensure_catalog()
        resolved = _PLATFORM_ALIASES.get(name, name)
        entry = _PLATFORMS.get(resolved)
    if entry is None:
        raise ConfigError(
            f"unknown platform {resolved!r}; available: {sorted(_PLATFORMS)}"
        )
    return entry, args


def build_platform(
    spec: str, *, cache: TimingCache | None = None, **kwargs
) -> Platform:
    """Construct the platform addressed by ``spec``.

    ``cache`` is forwarded so GPU platforms share one GEMM-timing cache;
    remaining keyword arguments (e.g. ``framework_overhead_s``) go to the
    platform constructor.
    """
    entry, args = platform_entry(spec)
    return entry.factory(*args, cache=cache, **kwargs)


def gemm_config(spec: str) -> tuple[SystemConfig, str]:
    """``(system, backend)`` for benching GEMMs on the platform of ``spec``."""
    entry, args = platform_entry(spec)
    if entry.gemm is None:
        raise ConfigError(
            f"platform {entry.name!r} has no GEMM backend to bench"
        )
    return entry.gemm(*args)


def available_platforms() -> dict[str, str]:
    """Registered platform names mapped to their descriptions."""
    _ensure_catalog()
    return {
        name: entry.description for name, entry in sorted(_PLATFORMS.items())
    }


# -- GPU platforms -----------------------------------------------------------

#: The platform class of each GEMM backend a GPU registers.
_GPU_PLATFORMS = {
    cls.backend: cls
    for cls in (GpuTcPlatform, GpuSimdPlatform, GpuSmaPlatform)
}


def _sma_parts(args: tuple[str, ...]) -> tuple[int, DataType]:
    if len(args) > 2:
        raise ConfigError(
            f"'sma' takes at most UNITS,DTYPE arguments, got {args}"
        )
    units = _int_arg("sma units", args[0]) if args else 3
    dtype = (
        _dtype_arg("sma dtype", args[1]) if len(args) > 1 else DataType.FP16
    )
    return units, dtype


def register_gpu_platforms(
    prefix: str,
    gpu: GpuConfig,
    flavors: dict[str, tuple[str, str, tuple[str, ...]]],
    interference=None,
) -> tuple[str, ...]:
    """Register one GPU's TensorCore, SIMD and SMA platforms.

    ``flavors`` maps each GEMM backend (``"tc"``, ``"simd"``, ``"sma"``)
    to its platform's registry name, description and aliases. The
    flavors time on systems named ``PREFIX-4tc``, ``PREFIX-simd`` and
    ``PREFIX-<UNITS>sma``, which every SM window and timing key embeds.
    The SMA flavor takes ``[:UNITS[,DTYPE]]`` (3 FP16 units by default),
    the others no argument. Returns every name and alias registered.
    """

    def register(backend, name, description, aliases) -> tuple[str, ...]:
        def system(args: tuple[str, ...]) -> SystemConfig:
            if backend != "sma":
                _no_args(name, args)
                suffix = "4tc" if backend == "tc" else "simd"
                return SystemConfig(name=f"{prefix}-{suffix}", gpu=gpu)
            units, dtype = _sma_parts(args)
            return SystemConfig(
                name=f"{prefix}-{units}sma",
                gpu=gpu,
                sma=SmaConfig(units_per_sm=units, dtype=dtype),
            )

        def build(*args: str, cache=None, **kwargs) -> Platform:
            return _GPU_PLATFORMS[backend](
                system=system(args),
                cache=cache,
                interference=interference,
                **kwargs,
            )

        register_platform(
            name,
            description=description,
            aliases=aliases,
            gemm=lambda *args: (system(args), backend),
        )(build)
        return (name, *aliases)

    return tuple(
        key
        for backend, flavor in flavors.items()
        for key in register(backend, *flavor)
    )


# The paper's Volta. The catalog registers the same GPU as ``v100``, but
# these platforms are not its aliases: their system names (``gpu-simd``,
# ``gpu-4tc``, ``gpu-<N>sma``) are in every window and timing key, and
# without an interference matrix a multi-stream plan schedules otherwise.
register_gpu_platforms(
    "gpu",
    volta_gpu(),
    {
        "simd": (
            "gpu-simd",
            "baseline Volta, every op on the FP32 CUDA cores",
            ("simd",),
        ),
        "tc": (
            "gpu-tc",
            "Volta with GEMMs on the 4 TensorCores per SM",
            ("tc", "gpu-4tc"),
        ),
        "sma": (
            "sma",
            "GPU with N SMA units per SM (sma[:UNITS[,DTYPE]])",
            ("gpu-sma",),
        ),
    },
)


# -- other built-in platforms ------------------------------------------------


@register_platform(
    "tpu",
    description="TPU core + host CPU with compiler lowering",
)
def _build_tpu(*args: str, cache=None, **kwargs) -> Platform:
    _no_args("tpu", args)
    del cache  # the TPU array model has no GEMM-timing cache to share
    return TpuPlatform(**kwargs)


@register_platform(
    "cpu",
    description="single general-purpose host core (roofline)",
)
def _build_cpu(*args: str, cache=None, **kwargs) -> Platform:
    _no_args("cpu", args)
    del cache
    return CpuPlatform(**kwargs)


# ---------------------------------------------------------------------------
# Model registry
# ---------------------------------------------------------------------------

#: A model factory: ``factory(*spec_args) -> LayerGraph``.
ModelFactory = Callable[..., LayerGraph]


@dataclass(frozen=True)
class ModelEntry:
    """One registered zoo model."""

    name: str
    factory: ModelFactory
    description: str = ""
    aliases: tuple[str, ...] = ()


_MODELS: dict[str, ModelEntry] = {}
_MODEL_ALIASES: dict[str, str] = {}


def register_model(
    name: str,
    *,
    description: str = "",
    aliases: tuple[str, ...] = (),
) -> Callable[[ModelFactory], ModelFactory]:
    """Decorator that registers a model graph factory under ``name``."""

    def decorator(factory: ModelFactory) -> ModelFactory:
        for key in (name, *aliases):
            if key in _MODELS or key in _MODEL_ALIASES:
                raise ConfigError(f"model {key!r} already registered")
        _MODELS[name] = ModelEntry(
            name=name,
            factory=factory,
            description=description,
            aliases=tuple(aliases),
        )
        for alias in aliases:
            _MODEL_ALIASES[alias] = name
        return factory

    return decorator


def unregister_model(name: str) -> None:
    """Remove a registered model (primarily for tests)."""
    entry = _MODELS.pop(name, None)
    if entry is not None:
        for alias in entry.aliases:
            _MODEL_ALIASES.pop(alias, None)


def build_model(spec: str) -> LayerGraph:
    """Build the layer graph addressed by ``spec`` (e.g. ``"mask_rcnn"``)."""
    name, args = parse_spec(spec)
    name = _MODEL_ALIASES.get(name, name)
    entry = _MODELS.get(name)
    if entry is None:
        raise ConfigError(
            f"unknown model {name!r}; available: {sorted(_MODELS)}"
        )
    return entry.factory(*args)


def available_models() -> dict[str, str]:
    """Registered model names mapped to their descriptions."""
    return {name: entry.description for name, entry in sorted(_MODELS.items())}


# -- built-in models ----------------------------------------------------------


@register_model("alexnet", description="AlexNet (Table II, 5 conv layers)")
def _model_alexnet(*args: str) -> LayerGraph:
    _no_args("alexnet", args)
    return build_alexnet()


@register_model(
    "vgg_a",
    description="VGG-A (Table II, 8 conv layers)",
    aliases=("vgg", "vgg-a"),
)
def _model_vgg_a(*args: str) -> LayerGraph:
    _no_args("vgg_a", args)
    return build_vgg_a()


@register_model("googlenet", description="GoogLeNet (Table II, 57 conv layers)")
def _model_googlenet(*args: str) -> LayerGraph:
    _no_args("googlenet", args)
    return build_googlenet()


@register_model(
    "mask_rcnn",
    description="Mask R-CNN with RoIAlign + NMS (Table II)",
    aliases=("mask-rcnn",),
)
def _model_mask_rcnn(*args: str) -> LayerGraph:
    _no_args("mask_rcnn", args)
    return build_mask_rcnn()


@register_model(
    "deeplab",
    description="DeepLab with ArgMax + CRF tail (deeplab[:nocrf])",
)
def _model_deeplab(*args: str) -> LayerGraph:
    with_crf = True
    for arg in args:
        if arg == "nocrf":
            with_crf = False
        elif arg == "crf":
            with_crf = True
        else:
            raise ConfigError(
                f"deeplab: unknown argument {arg!r}; one of ('crf', 'nocrf')"
            )
    return build_deeplab(with_crf=with_crf)


@register_model("goturn", description="GOTURN tracker (Fig 9 pipeline)")
def _model_goturn(*args: str) -> LayerGraph:
    _no_args("goturn", args)
    return build_goturn()


@register_model(
    "driving_det",
    description="DeepLab on driving frames, no CRF (Fig 9 DET,"
    " driving_det[:INPUT])",
    aliases=("driving-det",),
)
def _model_driving_det(*args: str) -> LayerGraph:
    # Imported lazily: repro.apps pulls in the Session facade, which is
    # still mid-import while this registry module loads.
    from repro.apps.tasks import build_detection_graph

    if len(args) > 1:
        raise ConfigError(
            f"'driving_det' takes at most an INPUT argument, got {args}"
        )
    input_size = (
        _int_arg("driving_det input", args[0], minimum=65) if args else None
    )
    if input_size is None:
        return build_detection_graph()
    return build_detection_graph(input_size)


@register_model(
    "orb_slam",
    description="ORB-SLAM feature frontend + pose solve (Fig 9 LOC)",
    aliases=("orb-slam",),
)
def _model_orb_slam(*args: str) -> LayerGraph:
    from repro.apps.tasks import build_localization_graph

    _no_args("orb_slam", args)
    return build_localization_graph()
