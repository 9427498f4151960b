"""Regenerate ``pins.json``: the reference outputs every op is checked against.

Run it from the root of a checkout, only when a change is meant to alter
simulated results (and say so in that change)::

    python3 perfbench/pin.py

For the paper export (the same for every seed) and for each of
:data:`SEEDS` on the other workloads, it sets up once, runs one untraced
and one traced op as a traced run does, and records the traced op's exact
counts (``run.EXACT``), the export's CSV digest and the serving-report
digest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Kept out of every run made while building the benchmark, for checking
#: later claims on inputs no change was tuned on.
HELD_BACK_SEED = 9001
SEEDS = [*range(21), HELD_BACK_SEED]


def pin(workload) -> dict:
    """One set-up and traced op of ``workload``; its pins."""
    import run
    import spans
    import workloads

    workload.pins = {}  # check nothing against the pins being replaced
    workload.setup()
    try:
        workload.op()
        op, recorded, root, missing = run.traced_op(workload)
    finally:
        workload.close()
    if missing:
        raise SystemExit(f"entry points gone, update spans.TARGETS: {missing}")
    if op.problems:
        raise SystemExit(f"{workload.name} op failed, not pinning: {op.problems}")
    values = run.layer_metrics(spans.layer_totals(recorded, root), op)
    record = {"exact": {key: values[key] for key in run.EXACT}}
    evidence = op.evidence
    if workload.name == "paper_export":
        if evidence["failed_checks"]:
            raise SystemExit(f"band checks fail, not pinning: {evidence['failed_checks']}")
        record.update(experiments=evidence["experiments"], csv_sha256=evidence["cold_digest"])
    elif "text" in evidence:
        record["report_sha256"] = workloads.sha256(evidence["text"])
    return record


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    pins = {}
    for name, make in workloads.WORKLOADS.items():
        if not make.seeded:
            pins[name] = pin(make(ROOT, 0, scratch))
            print(f"{name}: {pins[name]}", flush=True)
            continue
        pins[name] = {}
        for seed in SEEDS:
            pins[name][str(seed)] = pin(make(ROOT, seed, scratch))
            print(f"{name} seed {seed}: {pins[name][str(seed)]}", flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
