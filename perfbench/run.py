"""The repository benchmark: one command, every workload, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_solo --seed 1 --seconds 10 --trace 0

The run sets up its workload several times (``setup_s`` is the median),
then runs ops one at a time until ``--seconds`` have passed (always at
least one op). Every op's output is checked; an op whose check fails is
counted in ``failed``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, as medians over
the run's ops. The run pins itself to one CPU next to a probe process
that keeps timing a fixed reference loop there, and every timed phase's
host seconds are scaled to the reference speed by the passes timed
during it (``calibrate.py`` says why); the raw medians are printed too.
With ``--trace 1`` untraced and traced ops alternate: the
traced ones give the per-layer metrics (spans recorded around the
program's public entry points by ``spans.py``), a per-layer table is
printed, the last traced op is written as a Chrome trace under
``.perfbench/``, and the tracing overhead is the traced op time over the
untraced one. See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import calibrate
import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
#: No op starts once the run is this old and the last op would not fit.
RUN_BUDGET_S = 150.0

EXPERIMENTS = (
    "table1", "table2", "fig1", "fig2", "fig3", "fig7_left", "fig7_right",
    "fig8_speedup", "fig8_energy", "fig9_left", "fig9_right",
    "fig9_preemption", "area", "catalog_devices",
)

#: Per-layer metric name -> unit; every traced run reports all of them.
PER_LAYER_UNITS = {
    "gpu.sm.calls": "count",
    "gpu.sm.host_s": "s",
    "gpu.sm.us_per_inst": "us",
    "gpu.sm.sim_insts": "count",
    "gpu.sm.sim_cycles": "cycles",
    "gemm.time_gemm.calls": "count",
    "gemm.time_gemm.self_s": "s",
    "gemm.cache.hits": "count",
    "gemm.cache.misses": "count",
    "gemm.cache.window_hits": "count",
    "gemm.cache.window_misses": "count",
    "gemm.cache.hit_ratio": "ratio",
    "dnn.build_model.host_s": "s",
    "platforms.lower_model.self_s": "s",
    "schedule.instantiate.host_s": "s",
    "schedule.run.host_s": "s",
    "schedule.run.tasks": "count",
    "schedule.run.us_per_task": "us",
    "schedule.run.segments": "count",
    "schedule.run.drops": "count",
    "api.report_build.host_s": "s",
    "api.encode.host_s": "s",
    "api.encode.bytes": "bytes",
    "api.decode.host_s": "s",
    "sweep.store.put.host_s": "s",
    "sweep.store.read.host_s": "s",
    "sweep.store.bytes": "bytes",
    "sweep.expand.host_s": "s",
    "cluster.rpc.calls": "count",
    "cluster.rpc.host_s": "s",
    "cluster.server.execute_s": "s",
    "cluster.rpc.overhead_s": "s",
    "cluster.wire.bytes_out": "bytes",
    "cluster.wire.bytes_in": "bytes",
    "cluster.cache_entries.bytes": "bytes",
    **{f"experiments.{name}.host_s": "s" for name in EXPERIMENTS},
    "trace.overhead_ratio": "ratio",
    "trace.base_op_s": "s",
}

#: Per-layer metrics that are exact simulated or encoded counts. Every
#: traced op must give the counts pinned for its seed in ``pins.json``
#: (for a seed with no pins, the counts of the run's first traced op).
EXACT = (
    "gpu.sm.calls", "gpu.sm.sim_insts", "gpu.sm.sim_cycles",
    "gemm.time_gemm.calls", "gemm.cache.hits", "gemm.cache.misses",
    "gemm.cache.window_hits", "gemm.cache.window_misses",
    "schedule.run.tasks", "schedule.run.segments", "schedule.run.drops",
    "api.encode.bytes", "sweep.store.bytes", "cluster.rpc.calls",
    "cluster.wire.bytes_out", "cluster.wire.bytes_in",
    "cluster.cache_entries.bytes",
)


def end_to_end(ops, setups, workload, calibrator) -> dict:
    """Medians over the run's ops, every phase at the reference speed."""
    scaled = calibrator.scaled
    return {
        "op_s": ("s", statistics.median(scaled(op.op_window) for op in ops)),
        "unit_us": (
            "us",
            statistics.median(scaled(op.op_window) / op.units * 1e6 for op in ops),
        ),
        "followup_s": (
            "s",
            statistics.median(
                statistics.median(scaled(window) for window in op.followup_windows)
                for op in ops
            ),
        ),
        "setup_s": ("s", statistics.median(scaled(window) for window in setups)),
        "peak_rss_mb": ("MB", workload.peak_rss_mb()),
    }


def layer_metrics(totals, op) -> dict[str, float]:
    """The per-layer metrics of one traced op from its span totals."""

    def total(name):
        return totals.get(name, spans.LayerTotal())

    sm = total("gpu.sm.run")
    schedule = total("schedule.run")
    rpc = total("cluster.rpc")
    server = total("cluster.server.execute")
    wire = total("cluster.wire").counts
    cache = op.counts["cache"]
    lookups = cache["hits"] + cache["misses"]
    insts = sm.counts.get("sim_insts", 0)
    tasks = schedule.counts.get("tasks", 0)
    values = {
        "gpu.sm.calls": sm.calls,
        "gpu.sm.host_s": sm.host_s,
        "gpu.sm.us_per_inst": sm.host_s / insts * 1e6 if insts else 0.0,
        "gpu.sm.sim_insts": insts,
        "gpu.sm.sim_cycles": sm.counts.get("sim_cycles", 0.0),
        "gemm.time_gemm.calls": total("gemm.time_gemm").calls,
        "gemm.time_gemm.self_s": total("gemm.time_gemm").self_s,
        **{f"gemm.cache.{key}": value for key, value in cache.items()},
        "gemm.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "dnn.build_model.host_s": total("dnn.build_model").host_s,
        "platforms.lower_model.self_s": total("platforms.lower_model").self_s,
        "schedule.instantiate.host_s": total("schedule.instantiate").host_s,
        "schedule.run.host_s": schedule.host_s,
        "schedule.run.tasks": tasks,
        "schedule.run.us_per_task": schedule.host_s / tasks * 1e6 if tasks else 0.0,
        "schedule.run.segments": schedule.counts.get("segments", 0),
        "schedule.run.drops": schedule.counts.get("drops", 0),
        "api.report_build.host_s": total("api.report_build").host_s,
        "api.encode.host_s": total("api.encode").host_s,
        "api.encode.bytes": op.counts["encode_bytes"],
        "api.decode.host_s": total("api.decode").host_s,
        "sweep.store.put.host_s": total("sweep.store.put").host_s,
        "sweep.store.read.host_s": total("sweep.store.read").host_s,
        "sweep.store.bytes": op.counts["store_bytes"],
        "sweep.expand.host_s": total("sweep.expand").host_s,
        "cluster.rpc.calls": rpc.calls,
        "cluster.rpc.host_s": rpc.host_s,
        "cluster.server.execute_s": server.host_s,
        "cluster.rpc.overhead_s": rpc.host_s - server.host_s,
        "cluster.wire.bytes_out": wire.get("bytes_out", 0),
        "cluster.wire.bytes_in": wire.get("bytes_in", 0),
        "cluster.cache_entries.bytes": total("cluster.cache_entries").counts.get("bytes", 0),
    }
    for name in EXPERIMENTS:
        values[f"experiments.{name}.host_s"] = total(f"experiments.{name}").host_s
    return values


def print_layer_table(workload: str, totals, op_wall: float) -> None:
    print(f"per-layer spans of the last traced {workload} op ({op_wall:.3f} s):")
    print(f"  {'span':34s} {'calls':>8s} {'host s':>10s} {'self s':>10s} {'share':>7s}")
    for name, total in sorted(totals.items(), key=lambda item: -item[1].self_s):
        share = total.self_s / op_wall if op_wall > 0 else 0.0
        print(
            f"  {name:34s} {total.calls:8d} {total.host_s:10.4f}"
            f" {total.self_s:10.4f} {share:7.1%}"
        )


def traced_op(workload):
    """One traced op: (op, its spans, the index of the root span or None,
    the entry points in ``spans.TARGETS`` the program no longer has)."""
    if workload.out_of_process:
        op = workload.op(traced=True)
        missing = op.evidence.get("missing_entry_points", [])
        return op, spans.spans_from_list(op.spans or []), None, missing
    recorder = spans.SpanRecorder().install()
    try:
        with recorder.span("op"):
            op = workload.op(traced=True)
    finally:
        recorder.uninstall()
    return op, recorder.spans, 0, recorder.missing


def run_traced(workload, calibrator, seconds: float, started: float, out_dir: Path):
    """Alternate untraced and traced ops; returns (ops, problems, metrics)."""
    from repro.obs.perfetto import validate_chrome_trace

    plain, traced, per_op, problems = [], [], [], []
    missing: set[str] = set()
    pinned = workload.pinned()
    reference = pinned["exact"] if pinned else None
    what = "pinned" if pinned else "first traced op's"
    deadline = time.perf_counter() + seconds
    last = None
    while not traced or _room(deadline, started, last):
        pair_start = time.perf_counter()
        plain.append(checked(workload, workload.op()))
        op, recorded, root, gone = traced_op(workload)
        missing.update(gone)
        totals = spans.layer_totals(recorded, root)
        values = None if op.problems else layer_metrics(totals, op)
        traced.append(checked(workload, op))
        if values is not None:
            exact = {key: values[key] for key in EXACT}
            reference = reference or exact
            op.problems.extend(
                f"{key} {exact[key]} != the {what} {reference[key]}"
                for key in EXACT
                if exact[key] != reference[key]
            )
            per_op.append(values)
        last = time.perf_counter() - pair_start

    name = workload.name
    problems.extend(
        f"entry point {path} is gone, so its layer would read 0;"
        " update TARGETS in perfbench/spans.py"
        for path in sorted(missing)
    )
    op_wall = sum(span.end - span.start for span in recorded if span.parent is None)
    print_layer_table(name, totals, op_wall)
    if "op.export_cold" in totals:
        cold = totals["op.export_cold"].host_s
        sm = totals.get("gpu.sm.run", spans.LayerTotal()).host_s
        print(f"gpu.sm.run is {sm / cold:.1%} of the cold export ({cold:.3f} s)")
    payload = spans.chrome_trace(recorded, name=f"perfbench {name}")
    validate_chrome_trace(payload)
    path = out_dir / f"trace-{name}-seed{workload.seed}.json"
    path.write_text(json.dumps(payload))
    print(f"chrome trace: {path.relative_to(ROOT)} ({len(payload['traceEvents'])} events)")

    metrics = {}
    for key in PER_LAYER_UNITS:
        if key.startswith("trace."):
            continue
        # Every traced op failing leaves nothing to report; ``correct`` is false.
        values = [values[key] for values in per_op] or [0]
        metrics[key] = statistics.median_low(values) if key in EXACT else statistics.median(values)
    calibrator.settle()
    base = statistics.median(calibrator.scaled(op.op_window) for op in plain)
    ratio = statistics.median(calibrator.scaled(op.op_window) for op in traced) / base
    metrics["trace.overhead_ratio"] = ratio
    metrics["trace.base_op_s"] = base
    print(
        f"tracing overhead: {ratio:.3f}x over an untraced op_s of {base:.4f} s"
        f" ({len(plain)} untraced, {len(traced)} traced ops)"
    )
    result = {key: (PER_LAYER_UNITS[key], metrics[key]) for key in PER_LAYER_UNITS}
    return plain + traced, problems, result


def checked(workload, op):
    """Run the op's output checks (untraced) and drop what they needed."""
    op.problems = workload.check(op)
    op.evidence = {}
    return op


def _room(deadline: float, started: float, last: float | None) -> bool:
    now = time.perf_counter()
    return now < deadline and (last is None or now - started + last < RUN_BUDGET_S)


def run_untraced(workload, seconds: float, started: float):
    ops = []
    deadline = time.perf_counter() + seconds
    last = None
    while not ops or _room(deadline, started, last):
        op_start = time.perf_counter()
        ops.append(checked(workload, workload.op()))
        last = time.perf_counter() - op_start
    return ops


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro package under {ROOT}; run the"
            " benchmark from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of"
            f" {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, out_dir)
    # The children the run starts inherit the CPU; the probe shares it.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    calibrator = calibrate.Calibrator(cpu, out_dir / f"probe-{os.getpid()}.txt")
    try:
        calibrator.wait_ready()
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.monotonic()
            workload.setup()
            setups.append((start, time.monotonic()))
        if args.trace:
            ops, problems, metrics = run_traced(
                workload, calibrator, args.seconds, started, out_dir
            )
        else:
            ops = run_untraced(workload, args.seconds, started)
            calibrator.settle()
            problems, metrics = [], end_to_end(ops, setups, workload, calibrator)
        speed = calibrator.factor(setups[0][0], time.monotonic())
    finally:
        workload.close()
        calibrator.close()

    failed = sum(1 for op in ops if op.problems)
    for op in ops:
        problems.extend(op.problems)
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}")
    print(
        f"{args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed;"
        f" raw host-second medians: op {statistics.median(op.op_s for op in ops):.4f},"
        f" follow-up {statistics.median(op.followup_s for op in ops):.4f},"
        f" setup {statistics.median(end - start for start, end in setups):.4f}"
        f" (host speed x{speed:.3f} of the reference)"
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (unit, value) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
