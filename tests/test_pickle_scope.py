"""Source rule: only the cluster wire may import ``pickle``.

A timing cache lives only in the process that fills it, so no module
writes or reads pickled files; the one remaining use is the cache delta
a cluster server sends its client.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _imports_pickle(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == "pickle" for module in modules):
            return True
    return False


def test_only_the_cluster_protocol_imports_pickle():
    importers = sorted(
        path.relative_to(SRC).as_posix()
        for path in (SRC / "repro").rglob("*.py")
        if _imports_pickle(path)
    )
    assert importers == ["repro/cluster/protocol.py"]
