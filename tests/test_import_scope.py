"""Production imports leave numpy unloaded.

Only the functional models (the GEMM, systolic-array, SMA-unit and
TensorCore references) compute with numpy, and they import it inside the
functions that do, so a process that only simulates never pays for it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = """
import sys

import repro.__main__
import repro.api
import repro.cluster
import repro.experiments.export
import repro.fuzz
from repro.api import Session

Session().run_model("alexnet", "sma:3")
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_production_imports_and_a_model_run_leave_numpy_unloaded():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
