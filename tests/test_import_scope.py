"""Import rules for the ``repro`` package.

No module under ``src/repro`` imports numpy: every result comes from the
cycle-level SM and the closed-form cost models, which compute in plain
Python. numpy is a test dependency; the oracles that use it (such as
``tests/systolic/reference_array.py``) live under ``tests/``. A source rule
holds the modules to that, and a fresh interpreter that imports every
production entry point and runs a model proves nothing pulls numpy in.

Every package's ``__all__`` names only what the package defines, so
``from repro.<package> import *`` works after a name is deleted.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

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


def _numpy_imports(path: Path) -> list[int]:
    """Line numbers of every import of numpy in ``path``, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == "numpy" for module in modules):
            lines.append(node.lineno)
    return lines


def test_no_repro_module_imports_numpy():
    importers = {
        path.relative_to(SRC).as_posix(): lines
        for path in sorted((SRC / "repro").rglob("*.py"))
        if (lines := _numpy_imports(path))
    }
    assert importers == {}


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


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    # A stale ``__all__`` entry makes the star import raise AttributeError.
    exec(f"from {package} import *", {})
