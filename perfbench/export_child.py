"""One ``paper_export`` op, run in a fresh interpreter by ``run.py``.

Exports all paper tables and figures cold (empty timing cache), then
``--warm`` more times warm in the same process. Prints one JSON line with
the ``time.monotonic()`` end of the cold export and the windows of the
warm ones, the CSV digests, the band checks that failed and the simulated
SM work; with ``--spans`` it records spans and writes them to that file::

    python3 perfbench/export_child.py OUT_DIR SPAWNED_AT [--warm N] [--spans FILE]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the spawn
(a system-wide clock on Linux): the cold phase runs from there, so it
includes interpreter start and imports, as ``python -m repro export``
does.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from pathlib import Path


def csv_digest(written: dict) -> str:
    """SHA-256 over every exported CSV, in experiment-name order."""
    digest = hashlib.sha256()
    for name in sorted(written):
        digest.update(name.encode() + b"\0" + Path(written[name]).read_bytes() + b"\0")
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("out_dir")
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--warm", type=int, default=1)
    parser.add_argument("--spans")
    args = parser.parse_args()

    from repro.experiments.export import EXPERIMENT_RUNNERS, export_all
    from repro.gemm.cache import process_cache

    # export_all keeps only the CSVs; keep each report for its band checks.
    reports = {}

    def capture(name, runner):
        def run():
            reports[name] = runner()
            return reports[name]

        return run

    for name, runner in list(EXPERIMENT_RUNNERS.items()):
        EXPERIMENT_RUNNERS[name] = capture(name, runner)

    recorder = None
    if args.spans:
        from spans import SpanRecorder

        recorder = SpanRecorder().install()
        for name in list(EXPERIMENT_RUNNERS):
            recorder.patch_item(EXPERIMENT_RUNNERS, name, f"experiments.{name}")

    out = Path(args.out_dir)
    cache = process_cache()
    if recorder is None:
        cold = export_all(out / "cold")
    else:
        with recorder.span("op.export_cold"):
            cold = export_all(out / "cold")
    cold_end = time.monotonic()
    cold_stats = cache.stats()
    failed = sorted(
        f"{name}: {criterion}"
        for name, report in reports.items()
        for criterion, passed in report.checks.items()
        if not passed
    )
    windows = cache.export_entries().windows.values()

    warm_windows = []
    for _ in range(args.warm):
        gc.collect()
        start = time.monotonic()
        if recorder is None:
            warm = export_all(out / "warm")
        else:
            with recorder.span("op.export_warm"):
                warm = export_all(out / "warm")
        warm_windows.append((start, time.monotonic()))

    result = {
        "cold_end": cold_end,
        "warm_windows": warm_windows,
        "experiments": len(cold),
        "cold_digest": csv_digest(cold),
        "warm_digest": csv_digest(warm),
        "failed_checks": failed,
        "sim_insts": sum(int(w.counters.get("instructions_issued")) for w in windows),
        "sim_cycles": sum(float(w.cycles) for w in windows),
        "cache_cold": cold_stats.to_dict(),
        "cache_warm": cache.stats().since(cold_stats).to_dict(),
        "warm_exports": args.warm,
    }
    if recorder is not None:
        recorder.uninstall()
        result["missing_entry_points"] = recorder.missing
        Path(args.spans).write_text(json.dumps(recorder.to_list()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
