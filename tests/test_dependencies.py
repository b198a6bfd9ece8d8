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


def test_cli_import_leaves_out_scipy_and_multiprocessing():
    """``import bfpo.cli`` in a fresh interpreter loads neither scipy, nor
    ``multiprocessing``, which only ``bfpo sweep --workers`` above 1 uses, nor
    any ``concurrent.futures`` module, nor ``numpy.polynomial``, which only
    the PU quadrature truth uses."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, bfpo.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    loaded = set(proc.stdout.split())
    assert "bfpo.cli" in loaded
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    assert not {m for m in loaded if m == "multiprocessing" or m.startswith("multiprocessing.")}
    assert not {m for m in loaded if m.startswith("concurrent.futures")}
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


def _read_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: as a name, an attribute, or inside a quoted
    annotation or an ``__all__`` entry."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read |= _read_names(quoted)
    return read


def _private_definitions(tree: ast.Module) -> set[str]:
    """The module-level names ``tree`` defines with one leading underscore."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in defined if n.startswith("_") and not n.startswith("__")}


def test_no_unread_private_name():
    """Every private module-level name in ``src/bfpo`` is read somewhere in
    ``src/bfpo``, so a cut leaves no helper alive only for its tests."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted((SRC / "bfpo").glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    unread = {f"{name}: {d}" for name, tree in trees.items()
              for d in _private_definitions(tree) - read}
    assert sorted(unread) == []
