"""The device catalog: registration, platform wiring, and fingerprints.

Registering a :class:`~repro.catalog.specs.DeviceSpec` wires it into
:mod:`repro.api.registry` so catalog devices resolve everywhere a
platform spec string is accepted. A GPU-family device ``D`` registers
three platform flavors through
:func:`~repro.api.registry.register_gpu_platforms`, the function that
registers the paper's ``gpu-tc``/``gpu-simd``/``sma``::

    D            TensorCore platform  (aliases: tc@D, the spec's aliases)
    simd@D       CUDA-core-only platform
    sma@D        SMA platform, sma@D[:UNITS[,DTYPE]] like the built-in sma

A TPU-family device registers its name (``tpu-v2``) plus ``tpu@ALIAS``
forms (``tpu@v2``). All flavors carry the device's interference matrix
and GEMM ``(system, backend)`` wiring, so catalog specs work for model
runs, raw GEMM benches, scenarios, sweeps, serving, and the cluster.

The default catalog installs lazily: :func:`install_default_catalog` is
idempotent and is invoked by the registry itself on the first lookup
miss, so importing :mod:`repro.api` stays cheap and cycle-free.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import registry
from repro.catalog.specs import DEFAULT_DEVICES, DeviceSpec
from repro.errors import ConfigError

#: Registered devices in registration (generation) order.
_DEVICES: dict[str, DeviceSpec] = {}
#: Device alias -> canonical device name.
_ALIASES: dict[str, str] = {}
#: Registered *platform* name or alias -> canonical device name.
_PLATFORM_DEVICES: dict[str, str] = {}

_installed = False

#: Platform-flavor prefixes a device range may carry (``sma@v100..h100``).
_RANGE_PREFIXES = ("", "tc", "simd", "sma", "tpu")


def get_device(name: str) -> DeviceSpec:
    """Look up a registered device by name or alias."""
    install_default_catalog()
    key = str(name).strip().lower()
    key = _ALIASES.get(key, key)
    spec = _DEVICES.get(key)
    if spec is None:
        raise ConfigError(
            f"unknown device {name!r}; available: {sorted(_DEVICES)}"
        )
    return spec


def device_names(family: str | None = None) -> tuple[str, ...]:
    """Registered device names in generation order, optionally by family."""
    install_default_catalog()
    return tuple(
        name
        for name, spec in _DEVICES.items()
        if family is None or spec.family == family
    )


def device_for_platform(platform_spec: str) -> DeviceSpec | None:
    """The device behind a platform spec, or ``None`` for non-catalog specs.

    ``"a100"``, ``"sma@a100:3"``, and ``"tpu@v3"`` all resolve;
    hand-coded platforms (``"gpu-tc"``, ``"sma:3"``, ``"tpu"``) and
    unknown or malformed specs return ``None``.
    """
    install_default_catalog()
    try:
        name, _args = registry.parse_spec(platform_spec)
    except ConfigError:
        return None
    device = _PLATFORM_DEVICES.get(name)
    if device is None:
        return None
    return _DEVICES[device]


def catalog_fingerprint(platform_spec: str) -> str | None:
    """The content fingerprint of the device behind a platform spec.

    This is what :class:`~repro.api.results.SimRequest` carries so
    catalog-backed runs are content-addressed against the spec *data*:
    two hosts whose catalogs diverge fingerprint differently and the
    cluster protocol rejects the shard. ``None`` for non-catalog specs.
    """
    spec = device_for_platform(platform_spec)
    return spec.fingerprint() if spec is not None else None


def device_metadata(platform_spec: str) -> dict | None:
    """Fleet metadata (area, TDP) for reports, or ``None`` if non-catalog."""
    spec = device_for_platform(platform_spec)
    if spec is None:
        return None
    return {
        "device": spec.name,
        "area_mm2": spec.area_mm2,
        "tdp_w": spec.tdp_w,
    }


# -- platform wiring ---------------------------------------------------------------


def _register_gpu_platforms(spec: DeviceSpec) -> tuple[str, ...]:
    sma_name = f"sma@{spec.name}"
    return registry.register_gpu_platforms(
        spec.name,
        spec.gpu,
        {
            "tc": (
                spec.name,
                f"{spec.description} (TensorCore flavor)",
                (f"tc@{spec.name}",) + spec.aliases,
            ),
            "simd": (
                f"simd@{spec.name}",
                f"{spec.description} (CUDA-core-only flavor)",
                (),
            ),
            "sma": (
                sma_name,
                f"{spec.description} (SMA flavor,"
                f" {sma_name}[:UNITS[,DTYPE]])",
                (),
            ),
        },
        interference=spec.interference,
    )


def _register_tpu_platforms(spec: DeviceSpec) -> tuple[str, ...]:
    from repro.platforms.tpu_platform import TpuPlatform

    aliases = tuple(f"tpu@{alias}" for alias in spec.aliases)

    @registry.register_platform(
        spec.name,
        description=spec.description,
        aliases=aliases,
    )
    def _build_tpu(*args, cache=None, **kwargs):
        registry._no_args(spec.name, args)
        del cache  # the TPU array model has no GEMM-timing cache to share
        return TpuPlatform(
            config=spec.tpu, interference=spec.interference, **kwargs
        )

    return (spec.name, *aliases)


def register_device(spec: DeviceSpec) -> DeviceSpec:
    """Register a device and its platform flavors (idempotent per name).

    Raises :class:`~repro.errors.ConfigError` if the name or an alias is
    already taken by a *different* spec; re-registering an identical spec
    is a no-op so JSON catalogs can be loaded repeatedly.
    """
    if not isinstance(spec, DeviceSpec):
        raise ConfigError(f"expected a DeviceSpec, got {spec!r}")
    existing = _DEVICES.get(spec.name)
    if existing is not None:
        if existing == spec:
            return spec
        raise ConfigError(
            f"device {spec.name!r} already registered with a different spec"
        )
    for alias in spec.aliases:
        if alias in _DEVICES or alias in _ALIASES:
            raise ConfigError(
                f"device alias {alias!r} (of {spec.name!r}) already taken"
            )
    if spec.family == "gpu":
        registered = _register_gpu_platforms(spec)
    else:
        registered = _register_tpu_platforms(spec)
    for key in registered:
        _PLATFORM_DEVICES[key] = spec.name
    _DEVICES[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def unregister_device(name: str) -> None:
    """Remove a device and its platform registrations (primarily tests)."""
    spec = _DEVICES.pop(name, None)
    if spec is None:
        return
    for alias in spec.aliases:
        _ALIASES.pop(alias, None)
    for key in [
        key
        for key, device in _PLATFORM_DEVICES.items()
        if device == spec.name
    ]:
        # A platform's aliases go with its name; unregistering an alias
        # is a no-op.
        registry.unregister_platform(key)
        del _PLATFORM_DEVICES[key]


def install_default_catalog() -> None:
    """Register the built-in devices once (lazy, idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True
    for spec in DEFAULT_DEVICES:
        register_device(spec)


def load_catalog(source) -> tuple[DeviceSpec, ...]:
    """Load and register devices from a JSON catalog.

    ``source`` may be a path to a JSON file, a JSON string, or an
    already-decoded list/dict. The document is either a list of device
    spec objects or ``{"devices": [...]}``. Returns the registered specs.
    """
    install_default_catalog()
    data = source
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.exists():
            data = json.loads(path.read_text(encoding="utf-8"))
        elif isinstance(source, str) and source.lstrip().startswith(("{", "[")):
            data = json.loads(source)
        else:
            raise ConfigError(f"catalog file not found: {source!r}")
    if isinstance(data, dict):
        data = data.get("devices")
    if not isinstance(data, list):
        raise ConfigError(
            "catalog document must be a list of device specs or"
            " {'devices': [...]}"
        )
    return tuple(
        register_device(DeviceSpec.from_dict(item)) for item in data
    )


# -- sweep axis --------------------------------------------------------------------


def expand_device_range(name: str) -> tuple[str, ...]:
    """Expand a ``lo..hi`` device range into platform spec names.

    ``"v100..h100"`` walks the catalog in generation order and yields the
    devices of the endpoints' (shared) family in between — here
    ``("v100", "a100", "h100")``. An optional flavor prefix rides along:
    ``"sma@v100..h100"`` -> ``("sma@v100", "sma@a100", "sma@h100")``;
    ``"tpu@v1..v3"`` walks the TPU generations. Endpoints may be device
    names or aliases.
    """
    install_default_catalog()
    prefix, sep, rng = name.partition("@")
    if not sep:
        prefix, rng = "", name
    prefix = prefix.strip().lower()
    if prefix not in _RANGE_PREFIXES:
        raise ConfigError(
            f"device range {name!r} has unknown flavor prefix {prefix!r};"
            f" one of {[p for p in _RANGE_PREFIXES if p]}"
        )
    lo_name, sep, hi_name = rng.partition("..")
    if not sep or not lo_name or not hi_name:
        raise ConfigError(
            f"device range {name!r} must look like 'LO..HI'"
        )
    lo = get_device(lo_name)
    hi = get_device(hi_name)
    if lo.family != hi.family:
        raise ConfigError(
            f"device range {name!r} mixes families"
            f" ({lo.name}: {lo.family}, {hi.name}: {hi.family})"
        )
    if prefix in ("tc", "simd", "sma") and lo.family != "gpu":
        raise ConfigError(
            f"device range {name!r}: flavor {prefix!r} needs GPU devices"
        )
    if prefix == "tpu" and lo.family != "tpu":
        raise ConfigError(
            f"device range {name!r}: flavor 'tpu' needs TPU devices"
        )
    order = [n for n in _DEVICES if _DEVICES[n].family == lo.family]
    lo_pos, hi_pos = order.index(lo.name), order.index(hi.name)
    if lo_pos > hi_pos:
        raise ConfigError(
            f"device range {name!r} is empty ({lo.name} comes after"
            f" {hi.name} in the catalog)"
        )
    selected = order[lo_pos : hi_pos + 1]
    if prefix in ("simd", "sma"):
        return tuple(f"{prefix}@{device}" for device in selected)
    # "", "tc", and "tpu" all resolve through the device's primary name.
    return tuple(selected)


__all__ = [
    "catalog_fingerprint",
    "device_for_platform",
    "device_metadata",
    "device_names",
    "expand_device_range",
    "get_device",
    "install_default_catalog",
    "load_catalog",
    "register_device",
    "unregister_device",
]
