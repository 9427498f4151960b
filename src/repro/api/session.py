"""The Session facade: one front door for every simulation consumer.

A :class:`Session` owns a shared GEMM-timing cache (by default the
process-wide one) and resolves platforms and models by spec string through
:mod:`repro.api.registry`. Every platform and executor it builds shares the
cache, so identical GEMM shapes are simulated once per process no matter
how many scenarios — examples, experiments, CLI runs, batched sweeps —
request them::

    from repro.api import Session

    session = Session()
    report = session.run_model("mask_rcnn", "sma:3")
    print(report.total_ms, session.cache_stats.hits)
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.api.registry import build_model, build_platform, gemm_config
from repro.api.results import (
    BatchResult,
    GemmReport,
    ModelReport,
    ScheduleReport,
    ServingReport,
    SimRequest,
)
from repro.dnn.graph import LayerGraph
from repro.errors import BatchRequestError, ConfigError
from repro.gemm.cache import CacheStats, TimingCache, process_cache
from repro.gemm.executor import GemmExecutor
from repro.gemm.problem import GemmProblem
from repro.obs.metrics import record_report_metrics
from repro.obs.selfprof import profile_phase
from repro.platforms.base import Platform
from repro.schedule.streams import ScenarioSpec, instantiate_frames
from repro.schedule.timeline import TimelineScheduler
from repro.serving.qos import make_qos
from repro.systolic.dataflow import Dataflow


def _coerce_dataflow(value: Dataflow | str | None) -> Dataflow | None:
    """Normalize a dataflow given as enum or value name (``"ws"``)."""
    if value is None or isinstance(value, Dataflow):
        return value
    try:
        return Dataflow(value)
    except ValueError:
        names = tuple(flow.value for flow in Dataflow)
        raise ConfigError(
            f"unknown dataflow {value!r}; one of {names}"
        ) from None


class Session:
    """Runs models and GEMM benches against string-addressed platforms.

    Parameters
    ----------
    cache:
        The :class:`TimingCache` shared by everything this session builds.
        Defaults to the process-wide cache, so independent sessions pool
        results; pass a fresh ``TimingCache()`` for isolation.
    cluster:
        One or more ``"host:port"`` cluster-server addresses. When set,
        :meth:`run_sweep` dispatches through
        :func:`repro.cluster.dispatch.run_sweep_remote` (one shard per
        server, caches merged back on join) and
        :meth:`run_serving_split` defaults to one partition per server —
        the session becomes a front door to the fleet instead of this
        process.
    cluster_timeout_s:
        Per-shard round-trip bound for cluster dispatch (``None`` keeps
        the dispatcher's default). Raise it when single shards simulate
        longer than the default 10 minutes, or a busy server is
        misclassified as dead and its shard re-dispatched.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`. When set,
        every report this session produces increments the serving/report
        counters (:func:`~repro.obs.metrics.record_report_metrics`) and
        the scenario pipeline self-profiles its phases (``lower``,
        ``instantiate``, ``schedule``) into ``phase_seconds`` histograms.
        Attaching a registry never changes a report — observation only.
    """

    def __init__(
        self,
        cache: TimingCache | None = None,
        cluster: "str | Sequence[str] | None" = None,
        cluster_timeout_s: float | None = None,
        metrics=None,
    ) -> None:
        self.cache = cache if cache is not None else process_cache()
        if cluster is None:
            self.cluster: tuple[str, ...] = ()
        elif isinstance(cluster, str):
            self.cluster = (cluster,)
        else:
            self.cluster = tuple(cluster)
        self.cluster_timeout_s = cluster_timeout_s
        self.metrics = metrics
        self._platforms: dict[tuple, Platform] = {}
        self._executors: dict[tuple, GemmExecutor] = {}
        self._models: dict[str, LayerGraph] = {}

    # -- resolution (memoized per session) ---------------------------------------------
    def platform(self, spec: str, **kwargs) -> Platform:
        """The platform addressed by ``spec``, built once per kwargs set."""
        key = (spec, tuple(sorted(kwargs.items())))
        platform = self._platforms.get(key)
        if platform is None:
            try:
                platform = build_platform(spec, cache=self.cache, **kwargs)
            except TypeError as error:
                # e.g. a dataflow override on a platform without that axis
                raise ConfigError(
                    f"platform {spec!r} rejected options"
                    f" {sorted(kwargs)}: {error}"
                ) from None
            self._platforms[key] = platform
        return platform

    def model(self, spec: str) -> LayerGraph:
        """The layer graph addressed by ``spec``, built once per session."""
        graph = self._models.get(spec)
        if graph is None:
            graph = build_model(spec)
            self._models[spec] = graph
        return graph

    def executor(
        self,
        spec: str,
        *,
        dataflow: Dataflow = Dataflow.SEMI_BROADCAST_WS,
        scheduler: str | None = None,
    ) -> GemmExecutor:
        """A GEMM executor for the platform of ``spec``, sharing the cache.

        Distinct specs that resolve to the same frozen ``(system, backend)``
        — e.g. ``"sma"`` and ``"sma:3"`` — share one executor.
        """
        system, backend = gemm_config(spec)
        key = (system, backend, dataflow, scheduler)
        executor = self._executors.get(key)
        if executor is None:
            executor = GemmExecutor(
                system,
                backend,
                dataflow=dataflow,
                scheduler=scheduler,
                cache=self.cache,
            )
            self._executors[key] = executor
        return executor

    # -- simulation entry points -------------------------------------------------------
    def time_gemm(
        self,
        spec: str,
        problem: GemmProblem | int | Sequence[int],
        *,
        tag: str | None = None,
        dataflow: Dataflow | str | None = None,
        scheduler: str | None = None,
    ) -> GemmReport:
        """Time one GEMM on the platform of ``spec``.

        ``problem`` is a :class:`GemmProblem`, a single size ``n`` (meaning
        an ``n^3`` GEMM), or an ``(m, n, k)`` triple; bare sizes default to
        the backend's native dtype. ``dataflow`` (enum or value name) and
        ``scheduler`` override the executor defaults; the report echoes the
        overrides it was produced under.
        """
        flow = _coerce_dataflow(dataflow)
        executor = self.executor(
            spec,
            dataflow=flow if flow is not None else Dataflow.SEMI_BROADCAST_WS,
            scheduler=scheduler,
        )
        problem = self._coerce_problem(executor, problem)
        # Per-key probe (not a global counter delta, which would mislabel
        # reports when other threads hit the shared cache concurrently).
        cached = (
            self.cache.peek_timing(executor.cache_key(problem)) is not None
        )
        timing = executor.time_gemm(problem)
        report = GemmReport.from_timing(
            timing,
            platform=spec,
            cached=cached,
            tag=tag,
            dataflow=flow.value if flow is not None else None,
            scheduler=scheduler,
        )
        if self.metrics is not None:
            record_report_metrics(self.metrics, report)
        return report

    def run_model(
        self,
        model: str,
        platform: str,
        *,
        tag: str | None = None,
        platform_kwargs: dict | None = None,
    ) -> ModelReport:
        """Run a whole model graph on a platform, both addressed by spec.

        ``platform_kwargs`` (e.g. ``{"framework_overhead_s": 0.0}`` or a
        ``dataflow`` override) are forwarded to the platform factory; each
        distinct kwargs set gets its own memoized platform instance.
        """
        graph = self.model(model)
        result = self.platform(platform, **(platform_kwargs or {})).run_model(
            graph
        )
        report = ModelReport.from_result(
            result, model=model, platform=platform, tag=tag
        )
        if self.metrics is not None:
            record_report_metrics(self.metrics, report)
        return report

    def run_scenario(
        self,
        scenario: ScenarioSpec | dict,
        platform: str | None = None,
        *,
        tag: str | None = None,
        platform_kwargs: dict | None = None,
        tracer=None,
    ) -> ScheduleReport:
        """Schedule a multi-stream scenario on one platform's timeline.

        ``scenario`` is a :class:`~repro.schedule.streams.ScenarioSpec`
        (or its dict form). ``platform`` binds the target when the spec
        leaves it open — which is how a sweep re-targets one scenario
        across a platform axis — and wins when both are given. Each
        stream's model is lowered once from reset platform state (so
        pricing is deterministic per request), frames are instantiated
        with the stream's priority/period/skip settings, and the scenario
        policy schedules the whole task set. ``tracer`` — an optional
        :class:`~repro.obs.trace.Tracer` — records the structured event
        stream without changing the report by a byte.
        """
        spec, platform_spec, plan, timeline = self._schedule_scenario(
            scenario, platform, platform_kwargs, tracer=tracer
        )
        report = ScheduleReport.from_timeline(
            spec, platform_spec, timeline, plan, tag=tag
        )
        if self.metrics is not None:
            record_report_metrics(self.metrics, report)
        return report

    def run_serving(
        self,
        scenario: ScenarioSpec | dict,
        platform: str | None = None,
        *,
        tag: str | None = None,
        platform_kwargs: dict | None = None,
        tracer=None,
    ) -> ServingReport:
        """Serve a scenario open-loop and report tail latencies and drops.

        Same execution path as :meth:`run_scenario` — streams with
        ``arrivals`` release frames at their (seeded, deterministic)
        arrival times, and the scenario's ``qos`` admission policy may
        drop frames — but the result is a :class:`ServingReport`:
        per-stream p50/p95/p99 latency, goodput, and per-frame outcome
        records, the serving-side view of the same timeline. ``tracer``
        records the structured event stream without changing the report.
        """
        spec, platform_spec, plan, timeline = self._schedule_scenario(
            scenario, platform, platform_kwargs, tracer=tracer
        )
        report = ServingReport.from_timeline(
            spec, platform_spec, timeline, plan, tag=tag
        )
        if self.metrics is not None:
            record_report_metrics(self.metrics, report)
        return report

    def run_serving_split(
        self,
        scenario: ScenarioSpec | dict,
        platform: str | None = None,
        *,
        partitions: int | None = None,
        tag: str | None = None,
    ) -> ServingReport:
        """Serve one scenario split by stream across platform instances.

        The scenario's arrival trace is materialized once and its streams
        are partitioned round-robin; each partition replays its slice on
        its own platform instance and the per-stream reports merge into
        one :class:`ServingReport` with recomputed aggregate percentiles.
        With ``cluster=`` addresses configured, partitions default to one
        per server and dispatch remotely (dead servers re-dispatch); see
        :func:`repro.cluster.dispatch.run_serving_split`.
        """
        from repro.cluster.dispatch import run_serving_split

        if isinstance(scenario, dict):
            scenario = ScenarioSpec.from_dict(scenario)
        return run_serving_split(
            scenario,
            platform,
            partitions=partitions,
            servers=self.cluster or None,
            session=self,
            tag=tag,
            **self._cluster_kwargs(),
        )

    def _cluster_kwargs(self) -> dict:
        if self.cluster_timeout_s is None:
            return {}
        return {"timeout_s": self.cluster_timeout_s}

    def run_serving_stream(
        self,
        scenario: ScenarioSpec | dict,
        platform: str | None = None,
        *,
        tag: str | None = None,
        platform_kwargs: dict | None = None,
        keep_records: bool = False,
        max_events: int | None = None,
        stats_out: dict | None = None,
        tracer=None,
    ) -> ServingReport:
        """Serve a scenario through the bounded-memory streaming engine.

        Arrivals are consumed lazily and frames retire into O(1)
        per-stream accumulators (P² latency sketches), so trace length
        does not bound memory — the path for million-frame runs. With
        ``keep_records=True`` per-frame records are retained and the
        report equals :meth:`run_serving`'s exactly; without it the
        percentile fields are sketch estimates and ``sketches`` carries
        the estimator state. Open-loop scenarios only (closed-loop
        pacing has no static schedule to stream). See
        :mod:`repro.serving.streaming` for the semantics contract.
        """
        from repro.serving.streaming import serve_streaming

        scenario, platform_spec, target, templates = self._lower_scenario(
            scenario, platform, platform_kwargs
        )
        with profile_phase(self.metrics, "schedule"):
            report = serve_streaming(
                scenario,
                templates,
                interference=target.interference_matrix(),
                platform=platform_spec,
                tag=tag,
                keep_records=keep_records,
                max_events=max_events,
                stats_out=stats_out,
                tracer=tracer,
            )
        if self.metrics is not None:
            record_report_metrics(self.metrics, report)
        return report

    def _lower_scenario(
        self,
        scenario: ScenarioSpec | dict,
        platform: str | None,
        platform_kwargs: dict | None,
    ):
        """Coerce the spec and lower every stream's model (shared path)."""
        if isinstance(scenario, dict):
            scenario = ScenarioSpec.from_dict(scenario)
        if not isinstance(scenario, ScenarioSpec):
            raise ConfigError(
                f"run_scenario expects a ScenarioSpec, got {scenario!r}"
            )
        platform_spec = platform or scenario.platform
        if platform_spec is None:
            raise ConfigError(
                f"scenario {scenario.name!r} names no platform; pass one"
                " (e.g. session.run_scenario(spec, 'sma:3'))"
            )
        kwargs = dict(platform_kwargs or {})
        if scenario.framework_overhead_s is not None:
            kwargs.setdefault(
                "framework_overhead_s", scenario.framework_overhead_s
            )
        target = self.platform(platform_spec, **kwargs)
        templates = {}
        with profile_phase(self.metrics, "lower"):
            for stream in scenario.streams:
                target.reset_schedule_state()
                templates[stream.name] = target.lower_model(
                    self.model(stream.model), stream=stream.name
                )
            target.reset_schedule_state()
        return scenario, platform_spec, target, templates

    def _schedule_scenario(
        self,
        scenario: ScenarioSpec | dict,
        platform: str | None,
        platform_kwargs: dict | None,
        tracer=None,
    ):
        """Lower, instantiate, and schedule one scenario (shared path)."""
        scenario, platform_spec, target, templates = self._lower_scenario(
            scenario, platform, platform_kwargs
        )
        with profile_phase(self.metrics, "instantiate"):
            plan = instantiate_frames(scenario, templates)
        scheduler = TimelineScheduler(
            scenario.policy,
            qos=make_qos(scenario.qos),
            interference=target.interference_matrix(),
            tracer=tracer,
        )
        with profile_phase(self.metrics, "schedule"):
            timeline = scheduler.run(plan.tasks)
        return scenario, platform_spec, plan, timeline

    def run_request(
        self,
        request: SimRequest,
        *,
        platform_kwargs: dict | None = None,
    ) -> GemmReport | ModelReport | ScheduleReport | ServingReport:
        """Execute one :class:`SimRequest`, honoring its override fields."""
        if request.kind == "gemm":
            return self.time_gemm(
                request.platform,
                request.gemm,
                tag=request.tag,
                dataflow=request.dataflow,
                scheduler=request.scheduler,
            )
        kwargs = dict(platform_kwargs or {})
        if request.dataflow is not None:
            kwargs["dataflow"] = Dataflow(request.dataflow)
        if request.scheduler is not None:
            kwargs["scheduler"] = request.scheduler
        if request.kind == "serving":
            return self.run_serving(
                request.scenario,
                request.platform,
                tag=request.tag,
                platform_kwargs=kwargs or None,
            )
        if request.kind == "scenario":
            return self.run_scenario(
                request.scenario,
                request.platform,
                tag=request.tag,
                platform_kwargs=kwargs or None,
            )
        return self.run_model(
            request.model,
            request.platform,
            tag=request.tag,
            platform_kwargs=kwargs or None,
        )

    def run_batch(self, requests: Iterable[SimRequest]) -> BatchResult:
        """Execute requests in order; reports come back in the same order.

        The batch shares this session's cache, so repeated shapes across
        requests — the same model on several platforms, sweeps over
        overlapping layer shapes — are simulated once. The returned
        :class:`BatchResult` carries the cache counters observed at the end
        of the batch. A request that fails is re-raised as
        :class:`~repro.errors.BatchRequestError` carrying its batch index
        and tag, with the original exception chained.
        """
        requests = list(requests)
        for request in requests:
            if not isinstance(request, SimRequest):
                raise ConfigError(
                    f"run_batch expects SimRequest items, got {request!r}"
                )
        reports: list[GemmReport | ModelReport] = []
        for index, request in enumerate(requests):
            try:
                reports.append(self.run_request(request))
            except Exception as error:
                raise BatchRequestError.wrap(error, request, index) from error
        return BatchResult(tuple(reports), self.cache.stats())

    def run_sweep(
        self,
        spec,
        *,
        jobs: int = 1,
        store=None,
        resume: bool = False,
    ):
        """Run a :class:`~repro.sweep.grid.SweepSpec` (or pre-expanded
        :class:`~repro.sweep.grid.SweepGrid`) through the sweep engine.

        ``jobs`` > 1 shards the grid across worker processes and merges
        their timing caches back into this session's cache on join; see
        :func:`repro.sweep.run_sweep` for ``store``/``resume`` semantics.
        With ``cluster=`` addresses configured the grid instead shards
        across those servers (``jobs`` is the servers' concern then) and
        their cache deltas merge back here — results are bit-identical
        either way.
        """
        if self.cluster:
            from repro.cluster.dispatch import run_sweep_remote

            return run_sweep_remote(
                spec,
                self.cluster,
                store=store,
                resume=resume,
                session=self,
                **self._cluster_kwargs(),
            )
        from repro.sweep.workers import run_sweep

        return run_sweep(
            spec, jobs=jobs, store=store, resume=resume, session=self
        )

    # -- cache introspection -----------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the shared cache (snapshot)."""
        return self.cache.stats()

    @staticmethod
    def _coerce_problem(
        executor: GemmExecutor, problem: GemmProblem | int | Sequence[int]
    ) -> GemmProblem:
        if isinstance(problem, GemmProblem):
            return problem
        if isinstance(problem, int):
            return GemmProblem(
                problem, problem, problem, dtype=executor.default_dtype()
            )
        dims = tuple(problem)
        if len(dims) != 3:
            raise ConfigError(
                f"GEMM shape must be n or (m, n, k), got {problem!r}"
            )
        m, n, k = dims
        return GemmProblem(m, n, k, dtype=executor.default_dtype())

    def __repr__(self) -> str:
        stats = self.cache_stats
        return (
            f"Session(platforms={len(self._platforms)},"
            f" executors={len(self._executors)}, cache_hits={stats.hits},"
            f" cache_misses={stats.misses})"
        )


__all__ = ["Session"]
