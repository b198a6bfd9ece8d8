"""The runtime needs only the standard library and numpy, and a CLI call
imports no more than it uses."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bfpo"}


def _imported_roots(path: Path) -> set[str]:
    """The top-level package of every absolute import in ``path``."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted((SRC / "bfpo").glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_bfpo(path):
    assert _imported_roots(path) <= ALLOWED, sorted(_imported_roots(path) - ALLOWED)


def test_cli_import_leaves_out_scipy_and_the_process_pool():
    """``import bfpo.cli`` in a fresh interpreter loads neither scipy, nor the
    process pool, which only ``bfpo sweep --workers`` above 1 uses, nor
    ``numpy.polynomial``, which only the PU quadrature truth uses."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, bfpo.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    loaded = set(proc.stdout.split())
    assert "bfpo.cli" in loaded
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    assert "concurrent.futures.process" not in loaded
    assert "numpy.polynomial" not in loaded


def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads: not in code, in a quoted
    annotation or in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation or an ``__all__`` entry names what it reads.
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", sorted(p for p in (SRC / "bfpo").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_import(path):
    """A module imports only names it uses, so a cut leaves no dead import."""
    assert _unused_imports(path) == []
