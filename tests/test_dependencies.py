"""The runtime dependency of the package is numpy alone."""

import ast
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
