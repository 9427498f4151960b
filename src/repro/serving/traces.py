"""Open-loop arrival traces: seeded, deterministic frame-release schedules.

Closed-loop scenarios release frame ``k`` of a stream at ``k * period_s``
— the client waits for a fixed cadence. Production serving is *open
loop*: requests arrive on their own clock, whether or not the machine is
keeping up. An :class:`ArrivalSpec` declares such a process per stream:

* ``fixed`` — a deterministic cadence (``k * period``). The closed-loop
  periodic release is exactly this trace, which is what keeps the old
  behavior the degenerate case of the new machinery;
* ``poisson`` — memoryless arrivals at ``rate_hz`` (exponential
  inter-arrival gaps), the canonical serving model;
* ``mmpp`` — a two-state Markov-modulated Poisson process that dwells in
  a ``base`` state and bursts to ``burst_rate_hz``, modelling flash
  crowds;
* ``replay`` — explicit arrival times, usually loaded from an
  :class:`ArrivalTrace` JSON file written by an earlier run.

Everything is seeded and salted by stream name through a stable hash, so
the same spec produces bit-identical arrivals in every process — a trace
serialized to JSON and replayed reproduces the original schedule exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.common.codec import checked
from repro.common.seeding import derive_seed
from repro.errors import ConfigError

#: The arrival-process kinds a stream may declare.
ARRIVAL_KINDS = ("fixed", "poisson", "mmpp", "replay", "closed_loop")


def stream_seed(seed: int, salt: str) -> int:
    """A stable per-stream RNG seed (``hash()`` is process-randomized).

    Historical name for :func:`repro.common.seeding.derive_seed` with a
    single salt — the scheme and the registry of salt paths live there.
    """
    return derive_seed(seed, salt)


@dataclass(frozen=True)
class ArrivalSpec:
    """One stream's open-loop arrival process.

    ``rate_hz`` is the offered load (mean arrivals per second); ``fixed``
    may instead carry an exact ``period_s`` (the two are exclusive — a
    period expresses the closed-loop cadence bit-for-bit, without a
    ``1 / rate`` rounding). ``mmpp`` bursts to ``burst_rate_hz``
    (default ``5 x rate_hz``), spending ``burst_fraction`` of its
    arrivals in the burst state with mean burst length ``dwell``
    arrivals. ``replay`` ignores the generator fields and releases at
    ``times_s`` verbatim.

    ``closed_loop`` is the one *schedule-dependent* kind: frame ``k+1``
    is released when frame ``k`` completes plus ``think_s`` of client
    think time — the client that waits for its answer before asking
    again. It has no pre-computable trace (asking for one raises), so
    release times come from the timeline engine at simulation time.
    """

    kind: str = "poisson"
    rate_hz: float | None = None
    period_s: float | None = None
    seed: int = 0
    burst_rate_hz: float | None = None
    burst_fraction: float = 0.1
    dwell: int = 8
    times_s: tuple[float, ...] | None = None
    think_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ConfigError(
                f"unknown arrival kind {self.kind!r}; one of {ARRIVAL_KINDS}"
            )
        if self.think_s is not None and self.kind != "closed_loop":
            raise ConfigError(
                f"{self.kind!r} arrivals do not take think_s (closed_loop"
                " only)"
            )
        if self.times_s is not None:
            object.__setattr__(self, "times_s", tuple(self.times_s))
        if self.kind == "closed_loop":
            for name, value in (
                ("rate_hz", self.rate_hz),
                ("period_s", self.period_s),
                ("times_s", self.times_s),
            ):
                if value is not None:
                    raise ConfigError(
                        f"closed_loop arrivals do not take {name} (the"
                        " schedule itself paces releases)"
                    )
            if self.think_s is None:
                object.__setattr__(self, "think_s", 0.0)
            if self.think_s < 0:
                raise ConfigError(
                    f"closed_loop think_s must be >= 0, got {self.think_s}"
                )
            return
        if self.kind == "replay":
            if self.times_s is None:
                raise ConfigError("replay arrivals need times_s")
            if any(time < 0 for time in self.times_s):
                raise ConfigError("replay arrival times must be >= 0")
            if any(
                later < earlier
                for earlier, later in zip(self.times_s, self.times_s[1:])
            ):
                raise ConfigError("replay arrival times must be sorted")
            return
        if self.times_s is not None:
            raise ConfigError(
                f"{self.kind!r} arrivals do not take times_s (use replay)"
            )
        if self.kind == "fixed":
            if (self.rate_hz is None) == (self.period_s is None):
                raise ConfigError(
                    "fixed arrivals need exactly one of rate_hz or period_s"
                )
            if self.period_s is not None and self.period_s < 0:
                raise ConfigError("fixed arrival period must be >= 0")
        elif self.period_s is not None:
            raise ConfigError(
                f"{self.kind!r} arrivals take rate_hz, not period_s"
            )
        if self.rate_hz is not None and self.rate_hz <= 0:
            raise ConfigError(
                f"arrival rate must be > 0, got {self.rate_hz}"
            )
        if self.kind in ("poisson", "mmpp") and self.rate_hz is None:
            raise ConfigError(f"{self.kind!r} arrivals need rate_hz")
        if self.kind == "mmpp":
            if self.burst_rate_hz is not None and self.burst_rate_hz <= 0:
                raise ConfigError("mmpp burst rate must be > 0")
            if not 0.0 < self.burst_fraction < 1.0:
                raise ConfigError("mmpp burst_fraction must be in (0, 1)")
            if self.dwell < 1:
                raise ConfigError("mmpp dwell must be >= 1 arrival")

    @property
    def period(self) -> float:
        """The fixed cadence (``fixed`` kind only)."""
        if self.period_s is not None:
            return self.period_s
        return 1.0 / self.rate_hz

    def at_rate(self, rate_hz: float) -> "ArrivalSpec":
        """This process re-offered at a different rate (burst scales too)."""
        if self.kind in ("replay", "closed_loop"):
            raise ConfigError(f"{self.kind} arrivals cannot be re-rated")
        burst = self.burst_rate_hz
        if burst is not None and self.rate_hz:
            burst = burst * (rate_hz / self.rate_hz)
        return replace(self, rate_hz=rate_hz, period_s=None, burst_rate_hz=burst)

    # Hand-written: which keys are written depends on the arrival kind.
    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind, "seed": self.seed}
        if self.rate_hz is not None:
            payload["rate_hz"] = self.rate_hz
        if self.period_s is not None:
            payload["period_s"] = self.period_s
        if self.kind == "mmpp":
            payload["burst_rate_hz"] = self.burst_rate_hz
            payload["burst_fraction"] = self.burst_fraction
            payload["dwell"] = self.dwell
        if self.times_s is not None:
            payload["times_s"] = list(self.times_s)
        if self.kind == "closed_loop":
            payload["think_s"] = self.think_s
        return payload

    @classmethod
    @checked
    def from_dict(cls, data: dict) -> "ArrivalSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"arrival spec must be an object, got {data!r}")
        if "kind" not in data:
            raise ConfigError(f"arrival spec is missing 'kind': {data!r}")
        times = data.get("times_s")
        return cls(
            kind=data["kind"],
            rate_hz=data.get("rate_hz"),
            period_s=data.get("period_s"),
            seed=data.get("seed", 0),
            burst_rate_hz=data.get("burst_rate_hz"),
            burst_fraction=data.get("burst_fraction", 0.1),
            dwell=data.get("dwell", 8),
            times_s=tuple(times) if times is not None else None,
            think_s=data.get("think_s"),
        )


def generate_arrivals(
    spec: ArrivalSpec, count: int, salt: str = ""
) -> tuple[float, ...]:
    """The first ``count`` arrival times of ``spec`` (seeded by ``salt``).

    ``replay`` returns its recorded times, truncated to ``count`` — a
    shorter trace simply yields fewer frames. Generated kinds always
    yield exactly ``count`` sorted, non-negative times.
    """
    if count < 0:
        raise ConfigError(f"arrival count must be >= 0, got {count}")
    return tuple(iter_arrivals(spec, count, salt))


def iter_arrivals(spec: ArrivalSpec, count: int | None = None, salt: str = ""):
    """Stream the arrival times of ``spec`` lazily, one at a time.

    Yields exactly the floats :func:`generate_arrivals` would return —
    same RNG sequence, same arithmetic, same order — without ever
    materializing the trace, which is what lets the streaming serving
    driver consume million-frame Poisson processes in O(1) memory.
    ``count=None`` streams forever for the generated kinds (the caller
    bounds consumption); ``replay`` is inherently finite and ``fixed``
    honors ``count=None`` as unbounded.
    """
    if count is not None and count < 0:
        raise ConfigError(f"arrival count must be >= 0, got {count}")
    if spec.kind == "closed_loop":
        raise ConfigError(
            "closed_loop arrivals have no static schedule: releases are"
            " paced by frame completions at simulation time"
        )
    if spec.kind == "replay":
        times = spec.times_s if count is None else spec.times_s[:count]
        yield from times
        return
    if count == 0:
        return
    if spec.kind == "fixed":
        period = spec.period
        frame = 0
        while count is None or frame < count:
            yield frame * period
            frame += 1
        return
    rng = random.Random(stream_seed(spec.seed, salt))
    if spec.kind == "poisson":
        now = 0.0
        emitted = 0
        while count is None or emitted < count:
            now += rng.expovariate(spec.rate_hz)
            yield now
            emitted += 1
        return
    # mmpp: two-state modulation; state transitions are drawn per arrival
    # so the trace stays deterministic for a given (seed, salt, count).
    burst_rate = (
        spec.burst_rate_hz
        if spec.burst_rate_hz is not None
        else 5.0 * spec.rate_hz
    )
    leave_burst = 1.0 / spec.dwell
    enter_burst = leave_burst * spec.burst_fraction / (1.0 - spec.burst_fraction)
    now = 0.0
    bursting = False
    emitted = 0
    while count is None or emitted < count:
        now += rng.expovariate(burst_rate if bursting else spec.rate_hz)
        yield now
        emitted += 1
        if bursting:
            bursting = rng.random() >= leave_burst
        else:
            bursting = rng.random() < enter_burst


@dataclass(frozen=True)
class ArrivalTrace:
    """A materialized arrival schedule: per-stream release times.

    This is the lossless wire format between runs: a scenario's generated
    arrivals are captured with :func:`trace_scenario`, written with
    :meth:`save`, and a later process replays them with
    :func:`apply_trace` to reproduce the original schedule bit-for-bit
    (JSON floats round-trip exactly).
    """

    streams: dict[str, tuple[float, ...]]
    scenario: str | None = None
    frames: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "streams",
            {name: tuple(times) for name, times in self.streams.items()},
        )

    # Hand-written: its decoder's errors name the --trace mix-ups the
    # serve command reports (a report given as a trace, non-numeric times).
    def to_dict(self) -> dict:
        return {
            "kind": "arrival_trace",
            "scenario": self.scenario,
            "frames": self.frames,
            "streams": {
                name: list(times) for name, times in self.streams.items()
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    @checked
    def from_dict(cls, data: dict) -> "ArrivalTrace":
        if not isinstance(data, dict) or not isinstance(
            data.get("streams"), dict
        ):
            raise ConfigError(
                "not an arrival trace: expected an object with a 'streams'"
                f" mapping, got {data!r}"
            )
        streams: dict[str, tuple[float, ...]] = {}
        for name, times in data["streams"].items():
            if not isinstance(times, (list, tuple)) or not all(
                isinstance(time, (int, float)) and not isinstance(time, bool)
                for time in times
            ):
                raise ConfigError(
                    f"arrival trace stream {name!r}: times must be a list"
                    f" of numbers, got {times!r}"
                )
            streams[name] = tuple(times)
        return cls(
            streams=streams,
            scenario=data.get("scenario"),
            frames=data.get("frames"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ArrivalTrace":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError(f"invalid trace JSON: {error}") from None
        return cls.from_dict(data)

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json(indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: "str | Path") -> "ArrivalTrace":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ConfigError(
                f"cannot read arrival trace {str(path)!r}: {error}"
            ) from None
        return cls.from_json(text)


__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "ArrivalTrace",
    "generate_arrivals",
    "iter_arrivals",
    "stream_seed",
]
