"""The runtime dependency of the package is numpy alone."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import alrank

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "alrank"}
SOURCES = sorted(Path(alrank.__file__).parent.glob("*.py"))


def imported_modules(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.partition(".")[0]))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    outside = [(line, name) for line, name in imported_modules(path.read_text(encoding="utf-8"))
               if name not in ALLOWED]
    assert not outside, f"{path.name} imports {outside}"


def test_check_sees_every_import_form():
    source = "import os, scipy.sparse\nfrom hypothesis import given\nfrom . import ranker\n"
    assert imported_modules(source) == [(1, "os"), (1, "scipy"), (2, "hypothesis")]
    assert len(SOURCES) > 5


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} never uses {unused}"


def test_unused_import_check_sees_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy.linalg\nimport json as j\nfrom . import ranker\n"
        "from .datamodel import Run, Qrels as Q\n"
        "def f(x: Run) -> None:\n    return numpy.linalg.norm(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "j"), (4, "ranker"), (5, "Q")]


def test_import_loads_no_process_pool():
    """Importing the package and its CLI loads neither multiprocessing nor
    concurrent.futures (about 1 MB of peak RSS)."""
    code = (
        f"import sys; sys.path.insert(0, {str(Path(alrank.__file__).parents[1])!r}); "
        "import alrank, alrank.cli; "
        "print(*[m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
