"""The benchmark's four workloads: set-up, one timed op, and its checks.

Every op returns an :class:`OpResult`: the ``time.monotonic()`` window of
its main phase and of each run of its follow-up phase, the work units the
main phase did, and the exact counts the workload itself reads off the
program (cache counter deltas, bytes encoded and stored). ``check`` then
inspects the op's output outside any timed or traced region.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Bound on one child export; a run must end within 180 seconds.
CHILD_TIMEOUT_S = 150.0


Window = tuple[float, float]


@dataclass
class OpResult:
    op_window: Window
    units: int
    followup_windows: list[Window]
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: Spans recorded out of process (``paper_export``), else ``None``.
    spans: list | None = None
    #: What :meth:`Workload.check` inspects once tracing is off again.
    evidence: dict = field(default_factory=dict)

    @property
    def op_s(self) -> float:
        """Raw host seconds of the main phase."""
        return self.op_window[1] - self.op_window[0]

    @property
    def followup_s(self) -> float:
        return statistics.median(end - start for start, end in self.followup_windows)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_delta(after, before) -> dict:
    delta = after.since(before)
    return {
        "hits": delta.hits,
        "misses": delta.misses,
        "window_hits": delta.window_hits,
        "window_misses": delta.window_misses,
    }


class Workload:
    """Base: ``setup`` may run several times, each replacing the last."""

    #: True when ops run in a child process that records its own spans.
    out_of_process = False
    #: False when the inputs do not depend on the seed, so one set of pins
    #: serves every seed.
    seeded = True
    #: Follow-up phases are short, so an untraced op runs its follow-up
    #: this many times and reports the median; a traced op runs it once,
    #: so its spans describe one pass. Every timed phase starts after a
    #: full collection, so garbage from the one before is not charged to it.
    followup_repeats = 5

    def __init__(self, root: Path, seed: int, scratch: Path) -> None:
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.ops = 0
        self.pins = json.loads((HERE / "pins.json").read_text())

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, traced: bool = False) -> OpResult:
        raise NotImplementedError

    def check(self, op: OpResult) -> list[str]:
        """The op's output problems (empty when every check passes)."""
        raise NotImplementedError

    def pinned(self) -> dict | None:
        """The reference outputs in ``pins.json`` for this run's seed, or
        ``None`` when the seed has none (``pin.py`` writes them)."""
        pins = self.pins.get(self.name, {})
        return pins.get(str(self.seed)) if self.seeded else pins

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# -- paper_export ----------------------------------------------------------------------
class PaperExport(Workload):
    """A cold ``export_all`` of every table and figure in a fresh child,
    then warm ones in the same child. Seed-independent: the paper is."""

    name = "paper_export"
    out_of_process = True
    seeded = False

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def setup(self) -> None:
        # What a user pays before any export can start: an interpreter
        # that imports the package.
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.export"],
            env=self._env(),
            check=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def op(self, traced: bool = False) -> OpResult:
        self.ops += 1
        out = self.scratch / f"export-{self.ops}"
        spans_file = out / "spans.json"
        options = ["--warm", "1" if traced else str(self.followup_repeats)]
        if traced:
            out.mkdir(parents=True, exist_ok=True)
            options += ["--spans", str(spans_file)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "export_child.py"), str(out),
                 repr(spawned), *options],
                env=self._env(),
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            shutil.rmtree(out, ignore_errors=True)
            return self._failed(spawned, "export child timed out")
        if proc.returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return self._failed(spawned, f"export child failed: {tail[0]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        spans = None
        if traced:
            spans = json.loads(spans_file.read_text())
        shutil.rmtree(out, ignore_errors=True)
        # Whole-op counters: the cold export plus one warm one.
        cache = {
            key: child["cache_cold"][key] + child["cache_warm"][key] // child["warm_exports"]
            for key in ("hits", "misses", "window_hits", "window_misses")
        }
        return OpResult(
            op_window=(spawned, child["cold_end"]),
            units=max(1, child["sim_insts"]),
            followup_windows=[tuple(window) for window in child["warm_windows"]],
            counts={"cache": cache, "encode_bytes": 0, "store_bytes": 0},
            spans=spans,
            evidence=child,
        )

    @staticmethod
    def _failed(spawned: float, problem: str) -> OpResult:
        now = time.monotonic()
        return OpResult((spawned, now), 1, [(now, now)], [problem])

    def check(self, op: OpResult) -> list[str]:
        child = op.evidence
        if not child:
            return list(op.problems)
        pins = self.pinned()
        exact = pins["exact"]
        problems = [f"band check failed: {item}" for item in child["failed_checks"]]
        if child["experiments"] != pins["experiments"]:
            problems.append(f"exported {child['experiments']} experiments")
        if child["cold_digest"] != pins["csv_sha256"]:
            problems.append("cold CSV digest differs from the pinned one")
        if child["warm_digest"] != child["cold_digest"]:
            problems.append("warm CSV digest differs from the cold one")
        for key in ("sim_insts", "sim_cycles"):
            if child[key] != exact[f"gpu.sm.{key}"]:
                problems.append(f"{key} {child[key]} != pinned {exact[f'gpu.sm.{key}']}")
        # A warm export misses no SM window, so the op's count is the cold one's.
        if child["cache_cold"]["window_misses"] != exact["gemm.cache.window_misses"]:
            problems.append("cold export ran an unexpected number of SM windows")
        return problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- serve_multistream / serve_solo ----------------------------------------------------
class Serve(Workload):
    """One ``Session.run_serving`` call per op on a seeded open-loop trace,
    followed by the report's JSON encode and decode."""

    followup_repeats = 15

    def scenario(self):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.api import Session, TimingCache

        self.spec = self.scenario()
        self.session = Session(cache=TimingCache())
        # Lower every stream once (cold SM windows) through a one-frame
        # run of the same streams, so timed ops find the cache warm.
        self.session.run_serving(replace(self.spec, frames=1))
        platform = self.session.platform(self.spec.platform)
        self.tasks = self.spec.frames * sum(
            len(platform.lower_model(self.session.model(stream.model), stream=stream.name))
            for stream in self.spec.streams
        )
        platform.reset_schedule_state()
        pinned = self.pinned()
        self.digest = pinned["report_sha256"] if pinned else None
        self.digest_pinned = self.digest is not None

    def op(self, traced: bool = False) -> OpResult:
        from repro.api import results

        before = self.session.cache.stats()
        gc.collect()
        start = time.monotonic()
        report = self.session.run_serving(self.spec)
        op_window = (start, time.monotonic())
        counts = {"cache": cache_delta(self.session.cache.stats(), before)}

        followups = []
        for _ in range(1 if traced else self.followup_repeats):
            gc.collect()
            start = time.monotonic()
            text = json.dumps(report.to_dict(), sort_keys=True)
            decoded = results.report_from_dict(json.loads(text))
            followups.append((start, time.monotonic()))
        counts["encode_bytes"] = len(text)
        counts["store_bytes"] = 0
        evidence = {"report": report, "text": text, "decoded": decoded}
        return OpResult(op_window, self.tasks, followups, counts=counts, evidence=evidence)

    def check(self, op: OpResult) -> list[str]:
        report, text = op.evidence["report"], op.evidence["text"]
        problems = []
        digest = sha256(text)
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            problems.append(
                "report digest differs from the "
                + ("pinned one" if self.digest_pinned else "run's first op")
            )
        if op.evidence["decoded"] != report:
            problems.append("report does not survive a JSON round trip")
        offered = self.spec.frames * len(self.spec.streams)
        if report.offered != offered:
            problems.append(f"offered {report.offered} frames, expected {offered}")
        if report.completed + report.dropped != report.offered:
            problems.append("completed + dropped != offered")
        return problems


def _seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


class ServeMultistream(Serve):
    name = "serve_multistream"

    def scenario(self):
        from repro.api import ScenarioSpec, StreamSpec
        from repro.serving import ArrivalSpec, QosSpec

        det, tra, loc = _seeds(self.name, self.seed, 3)
        return ScenarioSpec(
            name="perfbench-multistream",
            platform="sma:3",
            frames=128,
            policy="priority",
            qos=QosSpec(kind="drop_late"),
            streams=(
                StreamSpec(name="det", model="deeplab:nocrf", priority=3.0, deadline_s=0.100,
                           arrivals=ArrivalSpec(kind="poisson", rate_hz=60.0, seed=det)),
                StreamSpec(name="tra", model="goturn", priority=2.0, deadline_s=0.100,
                           arrivals=ArrivalSpec(kind="mmpp", rate_hz=40.0, seed=tra)),
                StreamSpec(name="loc", model="orb_slam", priority=1.0, deadline_s=0.100,
                           arrivals=ArrivalSpec(kind="poisson", rate_hz=60.0, seed=loc)),
            ),
        )


class ServeSolo(Serve):
    name = "serve_solo"

    def scenario(self):
        from repro.api import ScenarioSpec, StreamSpec
        from repro.serving import ArrivalSpec, QosSpec

        (tra,) = _seeds(self.name, self.seed, 1)
        return ScenarioSpec(
            name="perfbench-solo",
            platform="sma:3",
            frames=1024,
            policy="fifo",
            qos=QosSpec(kind="drop_late"),
            streams=(
                StreamSpec(name="tra", model="alexnet", priority=1.0, deadline_s=0.050,
                           arrivals=ArrivalSpec(kind="poisson", rate_hz=120.0, seed=tra)),
            ),
        )


# -- sweep_rpc -------------------------------------------------------------------------
class SweepRpc(Workload):
    """A warm remote sweep through one loopback cluster server with sqlite
    write-through, then a read-only ``resume=True`` pass over that store."""

    name = "sweep_rpc"
    server = None

    def sweep_spec(self):
        from repro.api import ScenarioSpec, StreamSpec
        from repro.serving import ArrivalSpec, QosSpec
        from repro.sweep import SweepSpec

        tra, loc = _seeds(self.name, self.seed, 2)
        scenario = ScenarioSpec(
            name="perfbench-pair",
            frames=8,
            policy="priority",
            qos=QosSpec(kind="drop_late"),
            streams=(
                StreamSpec(name="tra", model="goturn", priority=2.0, deadline_s=0.100,
                           arrivals=ArrivalSpec(kind="poisson", rate_hz=30.0, seed=tra)),
                StreamSpec(name="loc", model="orb_slam", priority=1.0, deadline_s=0.100,
                           arrivals=ArrivalSpec(kind="poisson", rate_hz=30.0, seed=loc)),
            ),
        )
        return SweepSpec(
            platforms=("gpu-simd", "gpu-tc", "sma:2..3"),
            models=("alexnet", "vgg_a", "googlenet", "goturn", "deeplab", "mask_rcnn"),
            gemms=(256, 512, 1024, (512, 1024, 256)),
            scenarios=(scenario,),
        )

    def setup(self) -> None:
        from repro.api import Session, TimingCache
        from repro.cluster.server import ClusterServer

        self.close()
        self.spec = self.sweep_spec()
        local = Session(cache=TimingCache())
        local.run_sweep(self.spec)  # cold: fills the cache
        reference = local.run_sweep(self.spec)  # warm, as every timed op is
        self.reference = [
            json.dumps(report.to_dict(), sort_keys=True) for report in reference.reports
        ]
        server_cache = TimingCache()
        server_cache.merge(local.cache.export_entries())
        self.server = ClusterServer(jobs=1, cache=server_cache)
        self.server.start()
        self.client = Session(cache=local.cache, cluster=self.server.address)
        self.client.run_sweep(self.spec)  # warms the server's session

    def op(self, traced: bool = False) -> OpResult:
        from repro.sweep import ResultStore

        self.ops += 1
        path = self.scratch / f"sweep-{self.ops}.sqlite"
        path.unlink(missing_ok=True)
        server_cache = self.server.pool.cache
        before = server_cache.stats()
        followups = []
        with ResultStore(path) as store:
            gc.collect()
            start = time.monotonic()
            result = self.client.run_sweep(self.spec, store=store)
            op_window = (start, time.monotonic())
            for _ in range(1 if traced else self.followup_repeats):
                gc.collect()
                start = time.monotonic()
                resumed = self.client.run_sweep(self.spec, store=store, resume=True)
                followups.append((start, time.monotonic()))
        counts = {"cache": cache_delta(server_cache.stats(), before)}
        with sqlite3.connect(path) as conn:
            (stored,) = conn.execute("SELECT SUM(LENGTH(report_json)) FROM results").fetchone()
        conn.close()
        path.unlink()
        counts["store_bytes"] = counts["encode_bytes"] = int(stored or 0)
        evidence = {"result": result, "resumed": resumed}
        return OpResult(op_window, len(self.reference), followups, counts=counts, evidence=evidence)

    def check(self, op: OpResult) -> list[str]:
        result, resumed = op.evidence["result"], op.evidence["resumed"]
        problems = []
        points = len(self.reference)
        if len(result.executed) != points:
            problems.append(f"remote sweep executed {len(result.executed)} of {points} points")
        if resumed.executed or len(resumed.loaded) != points:
            problems.append(f"resume pass dispatched {len(resumed.executed)} points")
        for label, reports in (("remote", result.reports), ("resumed", resumed.reports)):
            texts = [json.dumps(report.to_dict(), sort_keys=True) for report in reports]
            wrong = sum(1 for got, want in zip(texts, self.reference) if got != want)
            if wrong or len(texts) != points:
                problems.append(f"{wrong} {label} reports differ from the local sweep")
        return problems

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


WORKLOADS = {
    "paper_export": PaperExport,
    "serve_multistream": ServeMultistream,
    "serve_solo": ServeSolo,
    "sweep_rpc": SweepRpc,
}
