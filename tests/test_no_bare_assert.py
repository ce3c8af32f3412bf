"""The library raises AssertionError explicitly for its internal invariants:
a bare ``assert`` statement is stripped under ``python -O``, which would turn
the check off silently."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pairform"
MODULES = sorted(SRC.rglob("*.py"))


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statement at line(s) {lines}"
