"""Pinned paper export: every exported CSV, byte for byte.

``goldens/<name>.csv`` holds the CSV ``export_all`` writes for each of the
14 experiments, with every float at full ``repr``. The export runs against
a fresh process-wide timing cache, so every SM sample window is simulated
cold here whatever ran before. The goldens also hash to the ``csv_sha256``
the repository benchmark pins for its cold export (``perfbench/pins.json``),
taken the way ``perfbench/export_child.py`` takes it.

Regenerate with ``PYTHONPATH=src python tests/experiments/test_export_goldens.py``
only when a change to the paper's numbers is intended (and re-pin the
benchmark with it).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments.export import EXPERIMENT_RUNNERS, export_all
from repro.gemm import cache as cache_module
from repro.gemm.cache import TimingCache

GOLDENS = Path(__file__).parent / "goldens"
PINS = Path(__file__).parents[2] / "perfbench" / "pins.json"


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for name in sorted(EXPERIMENT_RUNNERS):
        data = (directory / f"{name}.csv").read_bytes()
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def test_every_experiment_is_pinned():
    assert sorted(path.stem for path in GOLDENS.glob("*.csv")) == sorted(
        EXPERIMENT_RUNNERS
    )


def test_goldens_hash_to_the_benchmark_pin():
    pinned = json.loads(PINS.read_text())["paper_export"]["csv_sha256"]
    assert _digest(GOLDENS) == pinned


def test_cold_export_matches_goldens(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "_PROCESS_CACHE", TimingCache())
    written = export_all(tmp_path)
    assert sorted(written) == sorted(EXPERIMENT_RUNNERS)
    mismatched = [
        name
        for name, path in sorted(written.items())
        if path.read_bytes() != (GOLDENS / f"{name}.csv").read_bytes()
    ]
    assert mismatched == []
    assert cache_module.process_cache().stats().window_misses == 26


if __name__ == "__main__":
    export_all(GOLDENS)
