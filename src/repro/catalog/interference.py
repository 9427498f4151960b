"""Per-device measured interference matrices for co-run contention.

The timeline engine's fluid-sharing model historically derived spatial
co-run pressure *per kernel*: a TensorCore GEMM task carried a fractional
SIMD claim measured from that kernel's simulated register-file port
counters. That couples scheduling to a kernel-level simulation artifact
and cannot describe devices the kernel simulator does not model. The
catalog replaces it with a *per-device* pairwise matrix: for each
``(source, victim)`` resource pair, the measured fraction of the victim
resource a task running on the source keeps busy.

Semantics (consulted by
:class:`~repro.schedule.timeline.TimelineScheduler` when a platform
carries a matrix):

* pressure is **directional** — a matrix entry ``tc -> simd: 0.62``
  stretches a co-running SIMD kernel by 62% of the TC task's weight, but
  leaves the TC task itself unperturbed (the paper's co-run observation:
  the TC GEMM nearly saturates the RF ports and is barely affected,
  while the SIMD kernel pays the contention);
* a task exerts pressure only on resources it does *not* primarily
  claim — pressure onto a fully-claimed resource would double-count the
  task against itself;
* when several running tasks pressure the same victim their
  contributions sum (weight-scaled), exactly like explicit claims;
* when a matrix is active, per-kernel *fractional* claims are superseded
  and ignored — primary (full) claims keep their temporal-multiplexing
  semantics unchanged.

Factors are plain measured data (JSON round-trippable), so one simulator
core can score many physical parts without re-simulating their kernels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.common.codec import checked
from repro.errors import ConfigError
from repro.schedule.resources import ResourceKind


def _coerce_kind(value: "ResourceKind | str", label: str) -> ResourceKind:
    if isinstance(value, ResourceKind):
        return value
    try:
        return ResourceKind(str(value).strip().lower())
    except ValueError:
        names = tuple(kind.value for kind in ResourceKind)
        raise ConfigError(
            f"{label}: unknown resource kind {value!r}; one of {names}"
        ) from None


@dataclass(frozen=True)
class InterferenceMatrix:
    """Measured pairwise resource-contention factors of one device.

    ``entries`` is a canonically-ordered tuple of
    ``(source_kind, victim_kind, factor)`` triples, where ``factor`` is
    the fraction of the victim resource one weight-1.0 task running on
    the source keeps busy. The dataclass is frozen and hashable so it can
    ride inside a frozen :class:`~repro.catalog.specs.DeviceSpec`.
    """

    entries: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self) -> None:
        canonical = []
        seen: set[tuple[str, str]] = set()
        for entry in self.entries:
            try:
                source, victim, factor = entry
            except (TypeError, ValueError):
                raise ConfigError(
                    f"interference entry must be (source, victim, factor),"
                    f" got {entry!r}"
                ) from None
            source = _coerce_kind(source, "interference source").value
            victim = _coerce_kind(victim, "interference victim").value
            if source == victim:
                raise ConfigError(
                    f"interference entry {source!r} -> {victim!r} is a"
                    " self-pair; a task's own resource is a primary claim,"
                    " not interference"
                )
            factor = float(factor)
            if not 0.0 <= factor <= 1.0:
                raise ConfigError(
                    f"interference factor {source} -> {victim} must be in"
                    f" [0, 1], got {factor}"
                )
            if (source, victim) in seen:
                raise ConfigError(
                    f"duplicate interference entry {source!r} -> {victim!r}"
                )
            seen.add((source, victim))
            canonical.append((source, victim, factor))
        object.__setattr__(self, "entries", tuple(sorted(canonical)))

    def __bool__(self) -> bool:
        return bool(self.entries)

    def factor(
        self, source: "ResourceKind | str", victim: "ResourceKind | str"
    ) -> float:
        """The measured pressure of ``source`` onto ``victim`` (0 if none)."""
        source = _coerce_kind(source, "interference source").value
        victim = _coerce_kind(victim, "interference victim").value
        for entry_source, entry_victim, factor in self.entries:
            if entry_source == source and entry_victim == victim:
                return factor
        return 0.0

    def pressure(self, primaries) -> dict[ResourceKind, float]:
        """Cross-resource pressure of a task with the given primary claims.

        ``primaries`` is an iterable of :class:`ResourceKind` the task
        fully claims. Returns ``{victim: factor}`` for every victim the
        task pressures but does not itself primarily claim; with several
        source resources the strongest factor per victim wins (the task
        is one kernel, not one per source).
        """
        owned = {_coerce_kind(kind, "primary claim") for kind in primaries}
        pressures: dict[ResourceKind, float] = {}
        for source, victim, factor in self.entries:
            if ResourceKind(source) not in owned:
                continue
            victim_kind = ResourceKind(victim)
            if victim_kind in owned or factor <= 0.0:
                continue
            pressures[victim_kind] = max(
                pressures.get(victim_kind, 0.0), factor
            )
        return pressures

    # -- JSON round-trip ---------------------------------------------------------------
    # Hand-written: entries travel as one "source->victim" key each.
    def to_dict(self) -> dict:
        """``{"source->victim": factor}`` in canonical order."""
        return {
            f"{source}->{victim}": factor
            for source, victim, factor in self.entries
        }

    @classmethod
    @checked
    def from_dict(cls, data: dict) -> "InterferenceMatrix":
        entries = []
        for key, factor in (data or {}).items():
            source, sep, victim = str(key).partition("->")
            if not sep or not source or not victim:
                raise ConfigError(
                    f"interference key {key!r} must look like"
                    " 'source->victim'"
                )
            entries.append((source.strip(), victim.strip(), factor))
        return cls(entries=tuple(entries))

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "InterferenceMatrix":
        return cls.from_dict(json.loads(text))


__all__ = ["InterferenceMatrix"]
