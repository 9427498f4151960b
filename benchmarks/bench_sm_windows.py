"""Cold SM window simulation: the production loop against the per-cycle spec.

:meth:`StreamingMultiprocessor.run` skips the cycles in which nothing can
issue; :func:`tests.gpu.reference_sm.run_reference` steps through every
one. This gate runs both over the 18 pinned windows of
``tests/gpu/test_sm_goldens.CASES`` **in the same process**, the legs
alternating for :data:`ROUNDS` rounds, asserts equal results by ``repr``
(cycles and every counter and stall, in first-touch order) and emits
``BENCH_sm_windows.json`` with the ratio of the legs' best times. The
ratio's floor is ``sm_windows`` ``min.speedup`` in ``baseline.json``,
which ``benchmarks/check_regression.py`` enforces; a ratio survives the
runner-speed variance that would sink an absolute-time gate.

Run with::

    pytest benchmarks/bench_sm_windows.py -q -s
"""

from __future__ import annotations

import time

from unittest import mock

from benchmarks.conftest import emit_bench_json

from repro.gpu.sm import StreamingMultiprocessor
from tests.gpu.reference_sm import fingerprint, run_reference
from tests.gpu.test_sm_goldens import CASES, _simulate

#: Alternating rounds; each leg reports its best.
ROUNDS = 5


def _windows():
    """``(sm, kernel)`` of every pinned case, taken from the golden test's
    own builder so the two cannot drift apart."""
    windows = []
    with mock.patch.object(
        StreamingMultiprocessor, "run",
        lambda sm, kernel: windows.append((sm, kernel)),
    ):
        for case in CASES:
            _simulate(case)
    return windows


def test_sm_speedup_same_run():
    windows = _windows()
    elapsed = {}
    results = {}
    for _ in range(ROUNDS):
        for leg, run in (
            ("production", StreamingMultiprocessor.run),
            ("reference", run_reference),
        ):
            start = time.perf_counter()
            results[leg] = [run(sm, kernel) for sm, kernel in windows]
            seconds = time.perf_counter() - start
            elapsed[leg] = min(seconds, elapsed.get(leg, seconds))

    production = [fingerprint(result) for result in results["production"]]
    assert production == [
        fingerprint(result) for result in results["reference"]
    ], "the production loop diverged from the reference"
    instructions = sum(
        int(result.counters.get("instructions_issued"))
        for result in results["production"]
    )
    speedup = elapsed["reference"] / elapsed["production"]
    print(
        f"\n{len(windows)} windows, {instructions} instructions x2 loops:"
        f" production {elapsed['production']:.3f}s,"
        f" reference {elapsed['reference']:.3f}s -> {speedup:.2f}x"
    )
    emit_bench_json(
        "sm_windows",
        ops=instructions,
        seconds=elapsed["production"],
        extra={
            "reference_seconds": round(elapsed["reference"], 6),
            "speedup": round(speedup, 2),
            "windows": len(windows),
            "rounds": ROUNDS,
        },
    )
