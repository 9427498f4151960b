"""Host-speed calibration: a probe process that samples how fast this CPU
runs a fixed Python loop, so each timed phase can be scaled to one speed.

Shared sandboxes change speed under their neighbours' load. On the 2-vCPU
container this benchmark was built on, a fixed loop ran up to 1.9x slower
for stretches of seconds to minutes, each vCPU on its own, so the raw
median of one run's ops differed by 10-70% between runs. The benchmark
therefore pins itself (and the children it starts) to one CPU and starts
:class:`Calibrator`, a separate process pinned to the same CPU that wakes
every :data:`INTERVAL_S`, times one short reference pass, and appends
``<monotonic time> <pass seconds>`` to a file. A pass is timed in wall
time less the time the probe waited on the CPU's run queue: time the
hypervisor steals slows the pass as it slows the timed phases, while the
benchmark holding the CPU does not. A phase that ran from ``start`` to
``end`` is scaled by the passes timed inside it::

    calibrated_s = (end - start) * mean(REFERENCE_S / pass_s)

The reference pass touches no code of the program, so a host-speed change
cancels while a program change shows; README.md gives the deltas of a
planted slowdown, raw and calibrated, and the limits of the correction.
The probe takes about 3% of the CPU; it runs in every run alike.

Run as a script it is the probe: ``python3 calibrate.py CPU OUT_FILE``.
"""

from __future__ import annotations

import heapq
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Seconds between probe passes.
INTERVAL_S = 0.05
#: CPU seconds one probe pass takes at the reference speed.
REFERENCE_S = 0.0015


class Reference:
    """Event-queue style churn (heap, dict, small tuples) over a table
    larger than a core's private caches, like the simulator's own data."""

    def __init__(self, size: int = 20_000, seed: int = 7) -> None:
        rng = random.Random(seed)
        self.table = [(rng.random(), index, f"task{index}") for index in range(size)]
        self.order = list(range(size))
        rng.shuffle(self.order)
        self.offset = 0

    def run(self, steps: int = 1_200) -> int:
        heap: list = []
        counts: dict = {}
        size = len(self.order)
        for step in range(steps):
            time_s, uid, name = self.table[self.order[(self.offset + step * 7919) % size]]
            heapq.heappush(heap, (time_s, uid, name))
            counts[uid % 509] = counts.get(uid % 509, 0) + 1
        self.offset += 104_729
        return len(heap) + len(counts)


def _waited_s() -> float:
    """Seconds this thread has waited on a run queue (Linux schedstat)."""
    with open("/proc/thread-self/schedstat", encoding="ascii") as handle:
        return int(handle.read().split()[1]) / 1e9


def probe(cpu: int, out_file: str) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    reference = Reference()
    with open(out_file, "a", encoding="ascii") as out:
        while os.getppid() == parent:
            time.sleep(INTERVAL_S)
            waited, start = _waited_s(), time.perf_counter()
            reference.run()
            pass_s = time.perf_counter() - start - (_waited_s() - waited)
            out.write(f"{time.monotonic()!r} {pass_s!r}\n")
            out.flush()


class Calibrator:
    """Starts the probe on ``cpu`` and scales phases by its samples."""

    def __init__(self, cpu: int, out_file: Path) -> None:
        self.path = out_file
        self.path.write_text("")
        self._offset = 0
        self.samples: list[tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu), str(out_file)]
        )

    def _read(self) -> None:
        with open(self.path, encoding="ascii") as handle:
            handle.seek(self._offset)
            text = handle.read()
        complete = text[: text.rfind("\n") + 1]
        self._offset += len(complete)
        for line in complete.splitlines():
            stamp, pass_s = line.split()
            self.samples.append((float(stamp), float(pass_s)))

    def wait_ready(self, timeout_s: float = 10.0) -> None:
        """Block until the probe has reported its first sample."""
        deadline = time.monotonic() + timeout_s
        while not self.samples and time.monotonic() < deadline:
            time.sleep(INTERVAL_S)
            self._read()
        if not self.samples:
            raise RuntimeError("the calibration probe reported no samples")

    def settle(self) -> None:
        """Wait for the probe passes after the last phase to be written."""
        time.sleep(2.5 * INTERVAL_S)

    def factor(self, start: float, end: float) -> float:
        """Mean speed ratio to the reference over ``[start, end]``; phases
        shorter than a probe interval use the passes nearest them."""
        self._read()
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            before = [s for t, s in self.samples if t < start][-1:]
            after = [s for t, s in self.samples if t > end][:1]
            inside = before + after
        return statistics.fmean(REFERENCE_S / pass_s for pass_s in inside)

    def scaled(self, window: tuple[float, float]) -> float:
        start, end = window
        return (end - start) * self.factor(start, end)

    def close(self) -> None:
        self._proc.terminate()
        self._proc.wait()
        self.path.unlink(missing_ok=True)


if __name__ == "__main__":
    probe(int(sys.argv[1]), sys.argv[2])
