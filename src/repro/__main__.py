"""Command-line interface: simulate workloads and regenerate the paper.

Every simulation subcommand goes through the :class:`repro.api.Session`
facade, so repeated GEMM shapes share one process-wide timing cache.

Usage::

    python -m repro list                         # experiments, platforms, models
    python -m repro simulate mask_rcnn sma:3     # run a model on platform(s)
    python -m repro simulate deeplab gpu-simd tpu --json
    python -m repro bench 4096 -p gpu-tc -p sma:3  # time one GEMM
    python -m repro bench 4096x1024x4096
    python -m repro sweep -p sma:2..4 -p gpu-tc -g 1024 -g 4096 --jobs 4 \
        --store sweep.sqlite --resume            # sharded, resumable sweep
    python -m repro scenario -p sma:3 --frames 4 --policy priority \
        -s "mask_rcnn@prio=3,deadline=0.2" -s deeplab -s vgg_a
                                                 # multi-stream timeline
    python -m repro serve -p sma:3 --frames 16 --qos drop_late \
        -s "mask_rcnn@deadline=0.2,rate=15" -s "vgg_a@rate=15" \
        --save-trace trace.json                  # open-loop serving
    python -m repro serve --spec scenario.json --trace trace.json --json
    python -m repro serve -p sma:3 --frames 1000000 --qos drop_late \
        -s "goturn@deadline=0.05,rate=200" --streaming  # bounded memory
    python -m repro serve -p sma:3 -p gpu-tc -s "deeplab@deadline=0.1" \
        --explore --rates 5,10,20 --slo-ms 100   # SLO explorer
    python -m repro serve -p sma:3 -s "deeplab@deadline=0.1" --explore \
        --rates 4,64 --search bisect --slo-ms 100  # bisect to the max rate
    python -m repro cluster serve --port 7070 --jobs 4  # warm sweep service
    python -m repro cluster status 127.0.0.1:7070
    python -m repro cluster sweep -p sma:2..4 -g 1024 --store sweep.sqlite \
        --server 127.0.0.1:7070 --server 10.0.0.2:7070  # cross-host shards
    python -m repro cluster serving -p sma:3 --frames 8 \
        -s "mask_rcnn@rate=15" -s "vgg_a@rate=15" \
        --server 127.0.0.1:7070 --server 127.0.0.1:7071  # split one trace
    python -m repro fuzz run --seed 7 --batch 64 --store corpus.sqlite \
        --reproducer-dir repros            # adversarial invariant fuzzing
    python -m repro fuzz run --seed 7 --batch 64 --differential \
        # every case re-run on the reference engine; divergence = violation
    python -m repro fuzz run --seed 7 --batch 64 \
        --server 127.0.0.1:7070 --server 10.0.0.2:7070  # fleet campaign
    python -m repro fuzz replay repros/c000002-priority_ladder.json
    python -m repro fuzz shrink failing_case.json -o minimal.json
    python -m repro store-diff old.sqlite new.sqlite  # regression gate
    python -m repro run fig7_left                # print one regenerated figure
    python -m repro run all                      # print everything
    python -m repro export [-o results]          # write every figure as CSV
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from repro.api import (
    ScenarioSpec,
    Session,
    SimRequest,
    StreamSpec,
    available_models,
    available_platforms,
)
from repro.common.tables import render_table
from repro.errors import ConfigError, ReproError
from repro.experiments.export import EXPERIMENT_RUNNERS, export_all
from repro.platforms.base import REPORTING_GROUPS as GROUP_ORDER

#: Default platform sweep for `bench` (every GEMM-capable backend).
BENCH_PLATFORMS = ("gpu-simd", "gpu-tc", "sma:2", "sma:3")


def _cmd_list() -> int:
    print("experiments:")
    for name, runner in EXPERIMENT_RUNNERS.items():
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:14s} {doc}")
    print()
    print("platforms (python -m repro simulate MODEL PLATFORM):")
    for name, description in available_platforms().items():
        print(f"  {name:14s} {description}")
    print()
    print("models:")
    for name, description in available_models().items():
        print(f"  {name:14s} {description}")
    return 0


def _cmd_catalog(args) -> int:
    from repro.catalog import loader

    if args.catalog_command == "list":
        rows = []
        for name in loader.device_names():
            spec = loader.get_device(name)
            rows.append(
                [
                    spec.name,
                    spec.family,
                    spec.vendor,
                    spec.year,
                    spec.area_mm2,
                    spec.tdp_w,
                    spec.fingerprint(),
                    ",".join(spec.aliases) or "-",
                ]
            )
        if args.json:
            print(
                json.dumps(
                    [
                        loader.get_device(name).to_dict()
                        for name in loader.device_names()
                    ],
                    indent=2,
                )
            )
            return 0
        print(
            render_table(
                ["device", "family", "vendor", "year", "area_mm2",
                 "tdp_w", "fingerprint", "aliases"],
                rows,
                title="device catalog (platform specs: NAME, simd@NAME,"
                " sma@NAME[:UNITS[,DTYPE]], tpu@GEN)",
            )
        )
        return 0

    spec = loader.get_device(args.name)
    if args.json:
        print(spec.to_json(indent=2))
        return 0
    config = spec.gpu if spec.gpu is not None else spec.tpu
    rows = [["name", spec.name],
            ["family", spec.family],
            ["description", spec.description],
            ["vendor", spec.vendor],
            ["year", spec.year],
            ["area_mm2", spec.area_mm2],
            ["tdp_w", spec.tdp_w],
            ["aliases", ",".join(spec.aliases) or "-"],
            ["fingerprint", spec.fingerprint()]]
    rows += [
        [f"{spec.family}.{key}", value]
        for key, value in sorted(dataclasses.asdict(config).items())
    ]
    rows += [
        [f"interference.{pair}", factor]
        for pair, factor in spec.interference.to_dict().items()
    ]
    print(render_table(["field", "value"], rows, title=f"device {spec.name}"))
    return 0


def _print_cache_line(session: Session) -> None:
    stats = session.cache_stats
    print(
        f"shared GEMM cache: {stats.hits} hits / {stats.misses} misses"
        f" ({stats.hit_rate:.0%} hit rate)"
    )


def _cmd_simulate(model: str, platforms: list[str], as_json: bool) -> int:
    session = Session()
    batch = session.run_batch(
        [SimRequest(platform=spec, model=model) for spec in platforms]
    )
    if as_json:
        print(batch.to_json(indent=2))
        return 0
    rows = []
    for report in batch:
        groups = report.grouped_seconds()
        rows.append(
            [report.platform, report.total_ms]
            + [groups.get(group, 0.0) * 1e3 for group in GROUP_ORDER]
        )
    print(
        render_table(
            ["platform", "total_ms"] + [f"{g}_ms" for g in GROUP_ORDER],
            rows,
            title=f"{model}: end-to-end latency per platform",
        )
    )
    print()
    _print_cache_line(session)
    return 0


def _parse_gemm(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    try:
        dims = tuple(int(part) for part in parts)
    except ValueError:
        raise SystemExit(
            f"bad GEMM spec {text!r}; expected N or MxNxK"
        ) from None
    if len(dims) == 1:
        return dims[0], dims[0], dims[0]
    if len(dims) == 3:
        return dims
    raise SystemExit(f"bad GEMM spec {text!r}; expected N or MxNxK")


def _cmd_bench(gemm: str, platforms: list[str], as_json: bool) -> int:
    shape = _parse_gemm(gemm)
    session = Session()
    reports = [session.time_gemm(spec, shape) for spec in platforms]
    if as_json:
        import json

        print(json.dumps([report.to_dict() for report in reports], indent=2))
        return 0
    baseline = reports[0].seconds
    rows = [
        [
            report.platform,
            report.dtype,
            report.milliseconds,
            report.tflops,
            report.sm_efficiency,
            baseline / report.seconds,
        ]
        for report in reports
    ]
    m, n, k = shape
    print(
        render_table(
            ["platform", "dtype", "ms", "tflops", "sm_efficiency",
             f"speedup_vs_{platforms[0]}"],
            rows,
            title=f"GEMM {m}x{n}x{k} on the simulated V100",
        )
    )
    print()
    _print_cache_line(session)
    return 0


def _parse_stream(text: str) -> StreamSpec:
    """Parse one ``-s MODEL[@key=value,...]`` stream option.

    Keys: ``name``, ``prio``/``priority``, ``skip``, ``period``,
    ``deadline`` (seconds), plus the open-loop arrival keys ``rate``
    (Hz), ``arrival`` (``poisson``/``mmpp``/``fixed``), and ``seed``.
    The model spec may itself carry ``:`` args (``deeplab:nocrf``),
    hence the ``@`` separator.
    """
    from repro.serving import ArrivalSpec

    model, _sep, rest = text.partition("@")
    model = model.strip()
    if not model:
        raise ConfigError(f"stream {text!r} has no model spec")
    options: dict = {"name": model, "model": model}
    arrival: dict = {}
    if rest:
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            key = key.strip().lower()
            if not sep or not value.strip():
                raise ConfigError(
                    f"stream {text!r}: expected key=value, got {part!r}"
                )
            value = value.strip()
            try:
                if key in ("prio", "priority"):
                    options["priority"] = float(value)
                elif key == "skip":
                    options["skip_interval"] = int(value)
                elif key == "period":
                    options["period_s"] = float(value)
                elif key == "deadline":
                    options["deadline_s"] = float(value)
                elif key == "name":
                    options["name"] = value
                elif key == "rate":
                    arrival["rate_hz"] = float(value)
                elif key == "arrival":
                    arrival["kind"] = value
                elif key == "seed":
                    arrival["seed"] = int(value)
                else:
                    raise ConfigError(
                        f"stream {text!r}: unknown key {key!r}; one of"
                        " name, prio, skip, period, deadline, rate,"
                        " arrival, seed"
                    )
            except ValueError:
                raise ConfigError(
                    f"stream {text!r}: bad value {value!r} for {key!r}"
                ) from None
    if arrival:
        arrival.setdefault("kind", "poisson")
        options["arrivals"] = ArrivalSpec(**arrival)
    return StreamSpec(**options)


def _load_scenario_file(path: str) -> ScenarioSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return ScenarioSpec.from_json(handle.read())
    except OSError as error:
        raise ConfigError(f"cannot read scenario file {path!r}: {error}")


def _scenario_from_args(args, platform: str | None, command: str) -> ScenarioSpec:
    """Build the scenario a ``scenario``/``serve`` invocation describes."""
    if args.spec:
        if args.streams:
            raise ConfigError(
                "--spec already defines the streams; drop the -s options"
            )
        # Command-line flags re-target the file's spec: -p/--platform via
        # run_scenario's platform argument, the rest by replacement.
        scenario = _load_scenario_file(args.spec)
        overrides = {
            key: value
            for key, value in (
                ("frames", args.frames),
                ("policy", args.policy),
                ("name", args.name),
            )
            if value is not None
        }
        if overrides:
            scenario = dataclasses.replace(scenario, **overrides)
    else:
        if not args.streams:
            raise ConfigError(
                f"{command} needs -s/--stream options (or --spec FILE)"
            )
        streams = tuple(_parse_stream(text) for text in args.streams)
        if not platform:
            raise ConfigError(f"{command} needs -p/--platform")
        scenario = ScenarioSpec(
            name=args.name if args.name is not None else command,
            streams=streams,
            platform=platform,
            frames=args.frames if args.frames is not None else 1,
            policy=args.policy if args.policy is not None else "fifo",
        )
    return scenario


def _make_tracer(args):
    """A fresh :class:`~repro.obs.trace.Tracer` when ``--trace-out`` asks.

    Returns ``None`` otherwise, so every engine trace site stays on its
    zero-overhead path (tracing is strictly opt-in per invocation).
    """
    if getattr(args, "trace_out", None) is None:
        return None
    from repro.obs import Tracer

    return Tracer()


def _save_trace_out(tracer, args, name: str) -> None:
    """Write the collected trace as Chrome/Perfetto JSON and say where."""
    if tracer is None:
        return
    from repro.obs import save_chrome_trace

    save_chrome_trace(tracer, args.trace_out, name=name)
    print(
        f"perfetto trace ({len(tracer.records)} events) written to"
        f" {args.trace_out}",
        file=sys.stderr,
    )


def _cmd_scenario(args) -> int:
    scenario = _scenario_from_args(args, args.platform, "scenario")
    session = Session()
    tracer = _make_tracer(args)
    report = session.run_scenario(
        scenario, args.platform or None, tracer=tracer
    )
    _save_trace_out(tracer, args, report.scenario)
    if args.json:
        print(report.to_json(indent=2))
        return 0
    rows = [
        [
            stream.name,
            stream.model,
            stream.priority,
            f"{stream.frames_run}/{stream.frames_run + stream.frames_skipped}",
            stream.busy_s * 1e3,
            stream.stretch,
            stream.mean_latency_s * 1e3,
            stream.max_latency_s * 1e3,
            stream.deadline_misses,
        ]
        for stream in report.streams
    ]
    print(
        render_table(
            ["stream", "model", "prio", "frames", "busy_ms", "stretch",
             "mean_lat_ms", "max_lat_ms", "misses"],
            rows,
            title=(
                f"scenario {report.scenario!r} on {report.platform}"
                f" ({report.policy} policy, {report.frames} frame(s))"
            ),
        )
    )
    print()
    occupancy = ", ".join(
        f"{kind}={fraction:.0%}"
        for kind, fraction in sorted(report.occupancy.items())
    )
    print(
        f"makespan {report.makespan_s * 1e3:.3f} ms,"
        f" avg frame latency {report.avg_frame_latency_ms:.3f} ms"
    )
    print(
        f"resource occupancy: {occupancy or 'n/a'};"
        f" cross-stream mode switches: {report.mode_switches}"
        f" ({report.switch_overhead_s * 1e6:.2f} us)"
    )
    _print_cache_line(session)
    return 0


def _parse_qos(text: str):
    """Parse a ``--qos KIND[:PARAM]`` option into a :class:`QosSpec`.

    ``drop_late[:SLACK_S]``, ``abort_late[:SLACK_S]``, ``queue_cap:CAP``,
    ``shed:CAP[:MIN_PRIO]``.
    """
    from repro.serving import QosSpec

    kind, _sep, rest = text.partition(":")
    kind = kind.strip()
    parts = [part.strip() for part in rest.split(":") if part.strip()]
    try:
        if kind in ("drop_late", "abort_late"):
            if len(parts) > 1:
                raise ConfigError(
                    f"qos {text!r}: {kind} takes at most one slack value"
                )
            return QosSpec(
                kind=kind, slack_s=float(parts[0]) if parts else 0.0
            )
        if kind in ("queue_cap", "shed"):
            if not parts:
                raise ConfigError(f"qos {text!r}: {kind} needs a cap")
            if kind == "queue_cap" and len(parts) > 1:
                raise ConfigError(f"qos {text!r}: queue_cap takes one cap")
            if len(parts) > 2:
                raise ConfigError(
                    f"qos {text!r}: shed takes cap[:min_priority]"
                )
            return QosSpec(
                kind=kind,
                cap=int(parts[0]),
                min_priority=float(parts[1]) if len(parts) == 2 else None,
            )
    except ValueError:
        raise ConfigError(f"qos {text!r}: bad numeric parameter") from None
    from repro.serving import QOS_KINDS

    raise ConfigError(f"unknown qos kind {kind!r}; one of {QOS_KINDS}")


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(
            float(part) for part in text.split(",") if part.strip()
        )
    except ValueError:
        raise ConfigError(
            f"bad --rates {text!r}; expected comma-separated Hz values"
        ) from None
    if not rates:
        raise ConfigError("--rates needs at least one arrival rate")
    return rates


def _print_serving_report(report, session: Session) -> None:
    rows = [
        [
            stream.name,
            stream.model,
            f"{stream.completed}/{stream.offered}",
            stream.dropped,
            stream.missed,
            stream.p50_s * 1e3,
            stream.p95_s * 1e3,
            stream.p99_s * 1e3,
            stream.goodput_fps,
        ]
        for stream in report.streams
    ]
    qos = (report.qos or {}).get("kind", "none")
    print(
        render_table(
            ["stream", "model", "done/offered", "drops", "misses",
             "p50_ms", "p95_ms", "p99_ms", "goodput_fps"],
            rows,
            title=(
                f"serving {report.scenario!r} on {report.platform}"
                f" ({report.policy} policy, qos={qos},"
                f" {report.frames} frame slot(s))"
            ),
        )
    )
    print()
    print(
        f"makespan {report.makespan_s * 1e3:.3f} ms;"
        f" {report.completed}/{report.offered} frames completed,"
        f" {report.dropped} dropped, {report.missed} missed;"
        f" p95 {report.p95_s * 1e3:.3f} ms,"
        f" goodput {report.goodput_fps:.2f} fps"
    )
    _print_cache_line(session)


def _cmd_serve(args) -> int:
    from repro.serving import ArrivalTrace
    from repro.serving.slo import (
        apply_trace,
        explore_slo,
        scenario_at_rate,
        trace_scenario,
    )

    platforms = tuple(args.platforms or ())
    if args.explore:
        # Reject rather than silently ignore single-run-only options.
        for flag, value in (
            ("--trace", args.trace),
            ("--save-trace", args.save_trace),
            ("--trace-out", args.trace_out),
            ("--rate", args.rate),
        ):
            if value is not None:
                raise ConfigError(
                    f"--explore and {flag} are exclusive ({flag} applies"
                    " to a single serving run)"
                )
        if args.streaming:
            raise ConfigError(
                "--explore and --streaming are exclusive (exploration runs"
                " through the sweep engine)"
            )
    qos = _parse_qos(args.qos) if args.qos else None
    platform = platforms[0] if platforms else None
    scenario = _scenario_from_args(args, platform, "serve")
    if qos is not None:
        scenario = dataclasses.replace(scenario, qos=qos)

    if args.explore:
        if not args.rates:
            raise ConfigError("--explore needs --rates R1,R2,...")
        if not platforms:
            raise ConfigError("--explore needs -p/--platform")
        percentiles = {"p50": 50.0, "p95": 95.0, "p99": 99.0}
        session = Session()
        report = explore_slo(
            scenario,
            platforms,
            _parse_rates(args.rates),
            slo_s=args.slo_ms / 1e3,
            percentile_q=percentiles[args.percentile],
            max_drop_fraction=args.max_drop_fraction,
            seed=args.seed,
            session=session,
            jobs=args.jobs,
            mode=args.search,
            tolerance_hz=args.tolerance_hz,
        )
        if args.json:
            print(report.to_json(indent=2))
            return 0
        rows = [
            [
                point.platform,
                point.rate_hz,
                f"{point.completed}/{point.offered}",
                point.dropped,
                point.missed,
                point.p50_s * 1e3,
                point.p95_s * 1e3,
                point.p99_s * 1e3,
                point.goodput_fps,
                "yes" if point.meets_slo else "NO",
            ]
            for point in report.points
        ]
        print(
            render_table(
                ["platform", "rate_hz", "done/offered", "drops", "misses",
                 "p50_ms", "p95_ms", "p99_ms", "goodput_fps", "slo"],
                rows,
                title=(
                    f"SLO exploration of {report.scenario!r}:"
                    f" {args.percentile} <= {args.slo_ms:g} ms"
                ),
            )
        )
        print()
        for platform_spec, rate in report.max_sustainable.items():
            shown = f"{rate:g} Hz" if rate is not None else "none"
            print(f"max sustainable rate on {platform_spec}: {shown}")
        _print_cache_line(session)
        return 0

    if len(platforms) > 1:
        raise ConfigError("serve runs on one platform; use --explore to sweep")
    if args.rate is not None:
        scenario = scenario_at_rate(scenario, args.rate, seed=args.seed)
    if args.trace:
        scenario = apply_trace(scenario, ArrivalTrace.load(args.trace))
    session = Session()
    stats: dict = {}
    tracer = _make_tracer(args)
    if args.streaming:
        report = session.run_serving_stream(
            scenario, platform or None, stats_out=stats, tracer=tracer
        )
    else:
        report = session.run_serving(
            scenario, platform or None, tracer=tracer
        )
    _save_trace_out(tracer, args, report.scenario)
    if args.save_trace:
        trace_scenario(scenario).save(args.save_trace)
    if args.json:
        print(report.to_json(indent=2))
        return 0
    _print_serving_report(report, session)
    if args.streaming:
        print(
            f"streaming run: {stats.get('events', 0)} events,"
            f" peak {stats.get('peak_live', 0)} live task(s)"
        )
    if args.save_trace:
        print(f"arrival trace written to {args.save_trace}")
    return 0


def _cmd_store_diff(args) -> int:
    import os

    from repro.sweep import ResultStore

    for path in (args.left, args.right):
        # sqlite would silently create a missing file, which would make a
        # mistyped baseline path pass the regression gate vacuously.
        if not os.path.exists(path):
            raise ConfigError(f"result store {path!r} does not exist")
    with ResultStore(args.left) as left, ResultStore(args.right) as right:
        diff = left.diff(right)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "only_left": list(diff.only_left),
                    "only_right": list(diff.only_right),
                    "changed": list(diff.changed),
                    "unchanged": list(diff.unchanged),
                    "identical": diff.identical,
                },
                indent=2,
            )
        )
    else:
        print(
            f"store diff: {len(diff.unchanged)} unchanged,"
            f" {len(diff.changed)} changed,"
            f" {len(diff.only_left)} only in {args.left},"
            f" {len(diff.only_right)} only in {args.right}"
        )
        for request_id in diff.changed:
            print(f"  changed: {request_id}")
    if diff.changed:
        print(
            "regression gate: result payloads changed for stored requests",
            file=sys.stderr,
        )
        return 1
    return 0


def _build_sweep_grid(args):
    """Expand the sweep grid a ``sweep``-shaped argparse namespace names."""
    from repro.sweep import SweepSpec, expand

    gemms = tuple(_parse_gemm(text) for text in (args.gemms or ()))
    scenarios = tuple(
        _load_scenario_file(path) for path in (args.scenarios or ())
    )
    spec = SweepSpec(
        platforms=tuple(args.platforms),
        models=tuple(args.models or ()),
        gemms=gemms,
        scenarios=scenarios,
        dataflows=tuple(args.dataflows) if args.dataflows else (None,),
        schedulers=tuple(args.schedulers) if args.schedulers else (None,),
        gemm_dtype=args.dtype,
        tag=args.tag,
    )
    return expand(spec)


def _print_sweep_result(grid, result, workers_label, store, as_json) -> int:
    if as_json:
        print(result.to_json(indent=2))
        return 0
    rows = []
    for point, report in zip(grid.points, result.reports):
        request = point.request
        if request.kind in ("scenario", "serving"):
            workload = request.scenario.name
            ms = report.avg_frame_latency_ms
        elif request.kind == "model":
            workload = request.model
            ms = report.total_ms
        else:
            workload = f"{report.m}x{report.n}x{report.k}"
            ms = report.milliseconds
        rows.append(
            [
                point.request_id,
                request.platform,
                workload,
                request.dataflow or "-",
                request.scheduler or "-",
                ms,
                "store" if point.request_id in result.loaded else "run",
            ]
        )
    print(
        render_table(
            ["request", "platform", "workload", "dataflow", "scheduler",
             "ms", "source"],
            rows,
            title=(
                f"sweep: {len(grid)} requests, {workers_label},"
                f" {len(result.executed)} simulated,"
                f" {len(result.loaded)} loaded from store"
            ),
        )
    )
    print()
    stats = result.cache_stats
    print(
        f"merged GEMM cache: {stats.hits} hits / {stats.misses} misses"
        f" ({stats.hit_rate:.0%} hit rate),"
        f" {stats.window_hits} window hits"
    )
    if store is not None:
        print(f"result store: {store.path} ({len(store)} results)")
    return 0


def _cmd_sweep(args, servers=()) -> int:
    """`sweep` over local workers, or `cluster sweep` over ``servers``."""
    from repro.sweep import ResultStore

    grid = _build_sweep_grid(args)
    session = Session(cluster=servers)
    store = ResultStore(args.store) if args.store else None
    try:
        result = session.run_sweep(
            grid,
            jobs=1 if servers else args.jobs,
            store=store,
            resume=args.resume,
        )
        label = (
            f"{len(servers)} server(s)" if servers else f"{args.jobs} worker(s)"
        )
        return _print_sweep_result(grid, result, label, store, args.json)
    finally:
        if store is not None:
            store.close()


def _cmd_cluster_serve(args) -> int:
    from repro.cluster import ClusterServer, serve_stdio

    if args.stdio:
        serve_stdio(jobs=args.jobs)
        return 0
    server = ClusterServer(host=args.host, port=args.port, jobs=args.jobs)
    host, port = server.start()
    print(
        f"cluster server listening on {host}:{port}"
        f" (jobs={args.jobs}, protocol v{_protocol_version()})",
        flush=True,
    )
    try:
        server.wait()
    except KeyboardInterrupt:
        print("cluster server interrupted; shutting down", file=sys.stderr)
        server.close()
    return 0


def _protocol_version() -> int:
    from repro.cluster import PROTOCOL_VERSION

    return PROTOCOL_VERSION


def _cmd_cluster_status(args) -> int:
    from repro.cluster import ClusterClient

    with ClusterClient(args.address) as client:
        status = client.status()
    if args.json:
        import json

        print(json.dumps(status, indent=2))
        return 0
    cache = status["cache"]
    print(
        f"cluster server {status['address']}: {status['state']}"
        f" (protocol v{status['protocol']}, {status['jobs']} worker(s))"
    )
    print(
        f"  submissions: {status['submissions']}"
        f" ({status['points']} points, {status['inflight']} in flight)"
    )
    print(
        f"  cache: {cache['timings']} timings / {cache['windows']} windows;"
        f" {cache['hits']} hits / {cache['misses']} misses"
    )
    frames = status.get("frames")
    if frames:
        print(
            f"  frames: {frames['offered']} offered,"
            f" {frames['completed']} completed, {frames['dropped']} dropped,"
            f" {frames['missed']} missed, {frames['preempted']} preempted"
        )
    return 0


def _cmd_cluster_metrics(args) -> int:
    from repro.cluster import ClusterClient
    from repro.obs import merge_snapshots, render_prometheus

    snapshots = []
    for address in args.addresses:
        with ClusterClient(address) as client:
            snapshots.append(client.metrics()["metrics"])
    merged = snapshots[0]
    for snapshot in snapshots[1:]:
        merged = merge_snapshots(merged, snapshot)
    if args.json:
        import json

        print(json.dumps(merged, indent=2, sort_keys=True))
        return 0
    print(render_prometheus(merged), end="")
    return 0


def _cmd_cluster_serving(args) -> int:
    from repro.cluster import run_serving_split

    if bool(args.servers) == bool(args.local):
        raise ConfigError(
            "cluster serving needs either --server ADDR (remote) or"
            " --local (in-process split), not both"
        )
    platforms = tuple(args.platforms or ())
    if len(platforms) > 1:
        raise ConfigError("cluster serving takes one -p/--platform")
    platform = platforms[0] if platforms else None
    qos = _parse_qos(args.qos) if args.qos else None
    scenario = _scenario_from_args(args, platform, "cluster serving")
    if qos is not None:
        scenario = dataclasses.replace(scenario, qos=qos)
    if args.rate is not None:
        from repro.serving.slo import scenario_at_rate

        scenario = scenario_at_rate(scenario, args.rate, seed=args.seed)
    session = Session()
    report = run_serving_split(
        scenario,
        platform,
        partitions=args.partitions,
        servers=args.servers or None,
        session=session if not args.servers else None,
    )
    if args.json:
        print(report.to_json(indent=2))
        return 0
    _print_serving_report(report, session)
    return 0


def _cmd_cluster_signal(args, verb: str) -> int:
    from repro.cluster import ClusterClient

    with ClusterClient(args.address) as client:
        response = client.drain() if verb == "drain" else client.shutdown()
    print(f"cluster server {args.address}: {response.get('state', verb)}")
    return 0


def _cmd_cluster(args) -> int:
    if args.cluster_command == "serve":
        return _cmd_cluster_serve(args)
    if args.cluster_command == "status":
        return _cmd_cluster_status(args)
    if args.cluster_command == "metrics":
        return _cmd_cluster_metrics(args)
    if args.cluster_command == "sweep":
        return _cmd_sweep(args, servers=args.servers)
    if args.cluster_command == "serving":
        return _cmd_cluster_serving(args)
    if args.cluster_command in ("drain", "shutdown"):
        return _cmd_cluster_signal(args, args.cluster_command)
    raise AssertionError("unreachable")


def _load_fuzz_source(path: str):
    """Load a ``fuzz_reproducer`` or bare ``fuzz_case`` JSON file."""
    from repro.fuzz import FuzzCase, Reproducer

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ConfigError(f"cannot read fuzz file {path!r}: {error}")
    except json.JSONDecodeError as error:
        raise ConfigError(f"fuzz file {path!r} is not valid JSON: {error}")
    if not isinstance(data, dict):
        raise ConfigError(f"fuzz file {path!r} must hold a JSON object")
    if data.get("kind") == "fuzz_reproducer":
        return Reproducer.from_dict(data)
    return FuzzCase.from_dict(data)


def _print_fuzz_violations(prefix: str, violations) -> None:
    for violation in violations:
        print(f"{prefix}{violation.oracle}: {violation.message}")


def _cmd_fuzz_run(args) -> int:
    from repro.fuzz import open_corpus, run_campaign

    store = open_corpus(args.store)
    try:
        report = run_campaign(
            args.seed,
            args.batch,
            start=args.start,
            store=store,
            resume=args.resume,
            shrink=args.shrink,
            inject=args.inject,
            differential=args.differential,
            servers=args.servers or None,
        )
    finally:
        if store is not None:
            store.close()
    if args.reproducer_dir:
        import os

        os.makedirs(args.reproducer_dir, exist_ok=True)
        for record in report.failures:
            if record.reproducer is not None:
                record.reproducer.save(
                    os.path.join(
                        args.reproducer_dir, f"{record.case_id}.json"
                    )
                )
    if args.json:
        print(report.to_json(indent=2))
        return 1 if report.failures else 0
    rows = [
        [
            record.index,
            record.case_id,
            record.family,
            record.status,
            ",".join(record.oracles) or "-",
        ]
        for record in report.records
    ]
    print(
        render_table(
            ["index", "case", "family", "status", "oracles"],
            rows,
            title=(
                f"fuzz campaign seed={report.campaign_seed}:"
                f" {report.batch} case(s) from index {report.start}"
                f" ({report.executed} executed, {report.loaded} resumed)"
            ),
        )
    )
    print()
    families = ", ".join(
        f"{family}={count}" for family, count in report.families().items()
    )
    print(f"families: {families or 'none'}")
    if report.failures:
        print(f"{len(report.failures)} case(s) violated an invariant:")
        for record in report.failures:
            print(f"  {record.case_id}: {', '.join(record.oracles)}")
            if record.reproducer is not None:
                shrunk = record.reproducer.case
                print(
                    f"    shrunk to {shrunk.n_streams} stream(s),"
                    f" {shrunk.n_frames} frame(s)"
                )
        return 1
    print("all invariants held")
    return 0


def _cmd_fuzz_replay(args) -> int:
    from repro.fuzz import Reproducer, replay_reproducer

    source = _load_fuzz_source(args.file)
    outcome = replay_reproducer(source)
    expected = (
        source.oracles if isinstance(source, Reproducer) else ()
    )
    if args.json:
        print(
            json.dumps(
                {
                    "case_id": outcome.case.case_id,
                    "ok": outcome.ok,
                    "oracles": list(outcome.failing_oracles),
                    "expected": list(expected),
                    "violations": [
                        violation.to_dict()
                        for violation in outcome.violations
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if outcome.ok else 1
    if outcome.ok:
        print(f"case {outcome.case.case_id}: all oracles held")
        if expected:
            print(
                f"warning: reproducer expected {', '.join(expected)} but"
                " the violation no longer reproduces",
                file=sys.stderr,
            )
        return 0
    print(
        f"case {outcome.case.case_id} violated:"
        f" {', '.join(outcome.failing_oracles)}"
    )
    _print_fuzz_violations("  ", outcome.violations)
    return 1


def _cmd_fuzz_shrink(args) -> int:
    from repro.fuzz import Reproducer, shrink_case

    source = _load_fuzz_source(args.file)
    case = source.case if isinstance(source, Reproducer) else source
    oracles = tuple(args.oracles) if args.oracles else None
    reproducer = shrink_case(case, oracles)
    reproducer.save(args.output)
    shrunk = reproducer.case
    print(
        f"shrunk {case.case_id} from {case.n_streams} stream(s)/"
        f"{case.n_frames} frame(s) to {shrunk.n_streams} stream(s)/"
        f"{shrunk.n_frames} frame(s); still violates:"
        f" {', '.join(reproducer.oracles)}"
    )
    print(f"reproducer written to {args.output}")
    return 0


def _cmd_fuzz(args) -> int:
    if args.fuzz_command == "run":
        return _cmd_fuzz_run(args)
    if args.fuzz_command == "replay":
        return _cmd_fuzz_replay(args)
    if args.fuzz_command == "shrink":
        return _cmd_fuzz_shrink(args)
    raise AssertionError("unreachable")


def _cmd_run(names: list[str]) -> int:
    if names == ["all"]:
        names = list(EXPERIMENT_RUNNERS)
    failures = 0
    for name in names:
        runner = EXPERIMENT_RUNNERS.get(name)
        if runner is None:
            print(f"unknown experiment {name!r}; try 'python -m repro list'")
            return 2
        report = runner()
        print(report.render())
        print()
        if not report.all_passed:
            failures += 1
    return 1 if failures else 0


def _cmd_export(output: str, names: list[str] | None) -> int:
    written = export_all(output, names)
    for name, path in written.items():
        print(f"{name:14s} -> {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMA (DAC 2020) reproduction: simulate and regenerate",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments, platforms, and models")

    catalog_parser = sub.add_parser(
        "catalog", help="inspect the real-hardware device catalog"
    )
    catalog_sub = catalog_parser.add_subparsers(
        dest="catalog_command", required=True
    )
    clist_parser = catalog_sub.add_parser(
        "list", help="list catalog devices with area/TDP and fingerprints"
    )
    clist_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    cshow_parser = catalog_sub.add_parser(
        "show", help="show one device spec in full"
    )
    cshow_parser.add_argument("name", help="device name or alias, e.g. a100")
    cshow_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    sim_parser = sub.add_parser(
        "simulate", help="run MODEL on PLATFORM(s) via the Session facade"
    )
    sim_parser.add_argument("model", help="model spec, e.g. mask_rcnn")
    sim_parser.add_argument(
        "platforms", nargs="+", help="platform specs, e.g. sma:3 gpu-tc"
    )
    sim_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    bench_parser = sub.add_parser(
        "bench", help="time one GEMM across platforms"
    )
    bench_parser.add_argument("gemm", help="N or MxNxK, e.g. 4096 or 4096x1024x4096")
    bench_parser.add_argument(
        "-p", "--platform", action="append", dest="platforms",
        help=f"platform spec (repeatable); default: {' '.join(BENCH_PLATFORMS)}",
    )
    bench_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    def add_sweep_axes(parser) -> None:
        """Workload/store options shared by `sweep` and `cluster sweep`."""
        parser.add_argument(
            "-p", "--platform", action="append", dest="platforms",
            required=True,
            help="platform spec (repeatable); ranges like sma:2..4 expand",
        )
        parser.add_argument(
            "-m", "--model", action="append", dest="models",
            help="model spec (repeatable), e.g. mask_rcnn",
        )
        parser.add_argument(
            "-g", "--gemm", action="append", dest="gemms",
            help="GEMM workload (repeatable): N or MxNxK",
        )
        parser.add_argument(
            "--dataflow", action="append", dest="dataflows",
            help="dataflow override axis (repeatable): ws, sbws, os",
        )
        parser.add_argument(
            "--scheduler", action="append", dest="schedulers",
            help="scheduler override axis (repeatable): gto, lrr, sma_rr",
        )
        parser.add_argument(
            "--dtype", default="fp16", help="dtype of bare GEMM sizes",
        )
        parser.add_argument(
            "--store", default=None, metavar="PATH",
            help="sqlite result store; each point or shard persists as it"
            " lands",
        )
        parser.add_argument(
            "--resume", action="store_true",
            help="skip requests already in the store (requires --store)",
        )
        parser.add_argument(
            "-S", "--scenario", action="append", dest="scenarios",
            metavar="FILE",
            help="scenario JSON file (repeatable); re-targeted per platform",
        )
        parser.add_argument(
            "--tag", default=None, help="label for reports"
        )
        parser.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )

    sweep_parser = sub.add_parser(
        "sweep",
        help="expand a spec grid and run it, optionally sharded/resumable",
    )
    add_sweep_axes(sweep_parser)
    sweep_parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes; caches merge back on join",
    )

    scenario_parser = sub.add_parser(
        "scenario",
        help="schedule N concurrent model streams on one platform timeline",
    )
    scenario_parser.add_argument(
        "-p", "--platform", default=None,
        help="platform spec, e.g. sma:3 (overrides --spec's platform)",
    )
    scenario_parser.add_argument(
        "-s", "--stream", action="append", dest="streams",
        metavar="MODEL[@k=v,...]",
        help="stream spec (repeatable): model plus name/prio/skip/period/"
        "deadline options, e.g. 'mask_rcnn@prio=3,deadline=0.2'",
    )
    scenario_parser.add_argument(
        "--frames", type=int, default=None,
        help="frames to simulate (default 1; overrides --spec)",
    )
    scenario_parser.add_argument(
        "--policy", default=None,
        choices=("fifo", "priority", "exclusive", "exclusive_preempt"),
        help="scheduling policy (default fifo; overrides --spec)",
    )
    scenario_parser.add_argument(
        "--name", default=None,
        help="scenario name for reports (overrides --spec)",
    )
    scenario_parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load the scenario from a ScenarioSpec JSON file",
    )
    scenario_parser.add_argument(
        "--trace-out", default=None, metavar="FILE", dest="trace_out",
        help="write a Chrome/Perfetto trace of the run (ui.perfetto.dev)",
    )
    scenario_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    serve_parser = sub.add_parser(
        "serve",
        help="serve streams open-loop (arrival traces, QoS, SLO explorer)",
    )
    serve_parser.add_argument(
        "-p", "--platform", action="append", dest="platforms",
        help="platform spec (repeatable with --explore), e.g. sma:3",
    )
    serve_parser.add_argument(
        "-s", "--stream", action="append", dest="streams",
        metavar="MODEL[@k=v,...]",
        help="stream spec (repeatable): scenario keys plus rate/arrival/"
        "seed, e.g. 'mask_rcnn@prio=3,deadline=0.2,rate=20'",
    )
    serve_parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load the scenario from a ScenarioSpec JSON file",
    )
    serve_parser.add_argument(
        "--frames", type=int, default=None,
        help="frame slots to simulate per stream (overrides --spec)",
    )
    serve_parser.add_argument(
        "--policy", default=None,
        choices=("fifo", "priority", "exclusive", "exclusive_preempt"),
        help="scheduling policy (default fifo; overrides --spec)",
    )
    serve_parser.add_argument(
        "--name", default=None, help="scenario name (overrides --spec)",
    )
    serve_parser.add_argument(
        "--qos", default=None, metavar="KIND[:PARAM]",
        help="admission control: drop_late[:slack_s], abort_late[:slack_s],"
        " queue_cap:N, shed:N[:min_prio]",
    )
    serve_parser.add_argument(
        "--rate", type=float, default=None, metavar="HZ",
        help="offer every stream at this Poisson rate (overrides periods)",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=0, help="arrival seed for --rate/--explore",
    )
    serve_parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="replay a recorded ArrivalTrace JSON file",
    )
    serve_parser.add_argument(
        "--save-trace", default=None, metavar="FILE", dest="save_trace",
        help="write the materialized arrival trace for later --trace replay",
    )
    serve_parser.add_argument(
        "--explore", action="store_true",
        help="sweep --rates across every -p platform and report SLO limits",
    )
    serve_parser.add_argument(
        "--rates", default=None, metavar="R1,R2,...",
        help="arrival rates (Hz) for --explore (the bracket for bisect)",
    )
    serve_parser.add_argument(
        "--search", default="grid", choices=("grid", "bisect"),
        help="--explore strategy: evaluate every rate, or bisect the"
        " bracket to the max sustainable rate (default grid)",
    )
    serve_parser.add_argument(
        "--tolerance-hz", type=float, default=1.0, dest="tolerance_hz",
        help="bisect convergence tolerance in Hz (default 1)",
    )
    serve_parser.add_argument(
        "--slo-ms", type=float, default=100.0, dest="slo_ms",
        help="latency SLO in milliseconds (default 100)",
    )
    serve_parser.add_argument(
        "--percentile", default="p95", choices=("p50", "p95", "p99"),
        help="tail percentile judged against the SLO (default p95)",
    )
    serve_parser.add_argument(
        "--max-drop-fraction", type=float, default=0.0,
        dest="max_drop_fraction",
        help="largest admissible drop fraction per point (default 0)",
    )
    serve_parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for --explore",
    )
    serve_parser.add_argument(
        "--streaming", action="store_true",
        help="consume arrivals as a bounded-memory stream (P2 percentile"
        " sketches instead of per-frame records; same counts/makespan)",
    )
    serve_parser.add_argument(
        "--trace-out", default=None, metavar="FILE", dest="trace_out",
        help="write a Chrome/Perfetto trace of the run (ui.perfetto.dev)",
    )
    serve_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    cluster_parser = sub.add_parser(
        "cluster",
        help="long-lived simulation service: serve, submit, introspect",
    )
    cluster_sub = cluster_parser.add_subparsers(
        dest="cluster_command", required=True
    )

    cserve_parser = cluster_sub.add_parser(
        "serve", help="run a cluster server (warm worker pool, shared cache)"
    )
    cserve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    cserve_parser.add_argument(
        "--port", type=int, default=7070,
        help="TCP port (0 picks an ephemeral one; default 7070)",
    )
    cserve_parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes in the warm pool",
    )
    cserve_parser.add_argument(
        "--stdio", action="store_true",
        help="speak the protocol over stdin/stdout instead of TCP",
    )

    cstatus_parser = cluster_sub.add_parser(
        "status", help="query a running server's state and cache counters"
    )
    cstatus_parser.add_argument("address", help="server address host:port")
    cstatus_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    cmetrics_parser = cluster_sub.add_parser(
        "metrics",
        help="merged metrics across servers (Prometheus text or JSON)",
    )
    cmetrics_parser.add_argument(
        "addresses", nargs="+", metavar="ADDRESS",
        help="server address host:port (repeatable; snapshots merge)",
    )
    cmetrics_parser.add_argument(
        "--json", action="store_true",
        help="emit the merged snapshot as JSON instead of Prometheus text",
    )

    csweep_parser = cluster_sub.add_parser(
        "sweep", help="run a sweep sharded across cluster servers"
    )
    add_sweep_axes(csweep_parser)
    csweep_parser.add_argument(
        "--server", action="append", dest="servers", required=True,
        metavar="HOST:PORT",
        help="cluster server (repeatable); shards round-robin across them",
    )

    cserving_parser = cluster_sub.add_parser(
        "serving",
        help="split one serving trace across platform instances and merge",
    )
    cserving_parser.add_argument(
        "-p", "--platform", action="append", dest="platforms",
        help="platform spec each partition instantiates, e.g. sma:3",
    )
    cserving_parser.add_argument(
        "-s", "--stream", action="append", dest="streams",
        metavar="MODEL[@k=v,...]",
        help="stream spec (repeatable), as in `repro serve`",
    )
    cserving_parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load the scenario from a ScenarioSpec JSON file",
    )
    cserving_parser.add_argument(
        "--frames", type=int, default=None,
        help="frame slots per stream (overrides --spec)",
    )
    cserving_parser.add_argument(
        "--policy", default=None,
        choices=("fifo", "priority", "exclusive", "exclusive_preempt"),
        help="scheduling policy (overrides --spec)",
    )
    cserving_parser.add_argument(
        "--name", default=None, help="scenario name (overrides --spec)"
    )
    cserving_parser.add_argument(
        "--qos", default=None, metavar="KIND[:PARAM]",
        help="admission control, as in `repro serve`",
    )
    cserving_parser.add_argument(
        "--rate", type=float, default=None, metavar="HZ",
        help="offer every stream at this Poisson rate",
    )
    cserving_parser.add_argument(
        "--seed", type=int, default=0, help="arrival seed for --rate"
    )
    cserving_parser.add_argument(
        "--server", action="append", dest="servers", metavar="HOST:PORT",
        help="cluster server (repeatable); one partition per server",
    )
    cserving_parser.add_argument(
        "--local", action="store_true",
        help="split in-process instead of dispatching to servers",
    )
    cserving_parser.add_argument(
        "--partitions", type=int, default=None,
        help="partition count (default: server count, or 2 with --local)",
    )
    cserving_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    for verb, text in (
        ("drain", "stop a server accepting new submissions"),
        ("shutdown", "gracefully stop a server (waits for in-flight work)"),
    ):
        signal_parser = cluster_sub.add_parser(verb, help=text)
        signal_parser.add_argument("address", help="server address host:port")

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="seeded adversarial fuzzing against the invariant oracles",
    )
    fuzz_sub = fuzz_parser.add_subparsers(dest="fuzz_command", required=True)

    frun_parser = fuzz_sub.add_parser(
        "run", help="run a campaign batch; exit 1 on any oracle violation"
    )
    frun_parser.add_argument(
        "--seed", type=int, required=True,
        help="campaign seed; every case derives from (seed, index)",
    )
    frun_parser.add_argument(
        "--batch", type=int, required=True, help="number of cases to run"
    )
    frun_parser.add_argument(
        "--start", type=int, default=0,
        help="first campaign index (default 0)",
    )
    frun_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="sqlite corpus; each case or shard persists as it lands",
    )
    frun_parser.add_argument(
        "--resume", action="store_true",
        help="skip indices already in the corpus (requires --store)",
    )
    frun_parser.add_argument(
        "--no-shrink", action="store_false", dest="shrink",
        help="record failures without delta-debugging them",
    )
    frun_parser.add_argument(
        "--inject", default=None, choices=("invert_priority",),
        help="plant a known fault (oracle self-test; must be caught)",
    )
    frun_parser.add_argument(
        "--differential", action="store_true",
        help="re-run every case on the reference engine; any report"
        " difference is an engine_divergence violation",
    )
    frun_parser.add_argument(
        "--server", action="append", dest="servers", metavar="HOST:PORT",
        help="cluster server (repeatable); shards fan out across them",
    )
    frun_parser.add_argument(
        "--reproducer-dir", default=None, metavar="DIR",
        dest="reproducer_dir",
        help="write each failure's shrunk reproducer JSON here",
    )
    frun_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    freplay_parser = fuzz_sub.add_parser(
        "replay",
        help="re-run a reproducer (or case) file; exit 1 if it still fails",
    )
    freplay_parser.add_argument(
        "file", help="fuzz_reproducer or fuzz_case JSON file"
    )
    freplay_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    fshrink_parser = fuzz_sub.add_parser(
        "shrink", help="delta-debug a failing case to a minimal reproducer"
    )
    fshrink_parser.add_argument(
        "file", help="fuzz_reproducer or fuzz_case JSON file"
    )
    fshrink_parser.add_argument(
        "-o", "--output", required=True, metavar="FILE",
        help="where to write the shrunk reproducer JSON",
    )
    fshrink_parser.add_argument(
        "--oracle", action="append", dest="oracles", metavar="NAME",
        help="chase only these oracles (default: whatever the case fails)",
    )

    diff_parser = sub.add_parser(
        "store-diff",
        help="diff two result stores; exit 1 when stored results changed",
    )
    diff_parser.add_argument("left", help="baseline store (e.g. previous CI run)")
    diff_parser.add_argument("right", help="current store")
    diff_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    run_parser = sub.add_parser("run", help="run experiments and print tables")
    run_parser.add_argument("names", nargs="+", help="experiment names or 'all'")

    export_parser = sub.add_parser("export", help="export experiments as CSV")
    export_parser.add_argument("-o", "--output", default="results")
    export_parser.add_argument("names", nargs="*", default=None)

    args = parser.parse_args(argv)
    try:
        code = _dispatch(args)
        # Flush here, not at exit, so a reader that closed the pipe
        # early (``repro list | head -1``) raises inside this block.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull so the
        # flush at exit cannot raise again, and exit 1 as on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "catalog":
        return _cmd_catalog(args)
    if args.command == "simulate":
        return _cmd_simulate(args.model, args.platforms, args.json)
    if args.command == "bench":
        return _cmd_bench(
            args.gemm, args.platforms or list(BENCH_PLATFORMS), args.json
        )
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "store-diff":
        return _cmd_store_diff(args)
    if args.command == "run":
        return _cmd_run(args.names)
    if args.command == "export":
        return _cmd_export(args.output, args.names or None)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
