"""The library computes over Q(i) only: no float literal and no ``float(``
call may appear in it, so no approximate value can enter an exact answer."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pairform"
MODULES = sorted(SRC.rglob("*.py"))


def _float_sites(tree) -> list:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                node.func.id == "float":
            lines.append(node.lineno)
    return sorted(lines)


def test_modules_found():
    assert len(MODULES) >= 10


def test_scan_finds_float_literals_and_calls():
    tree = ast.parse("a = 0.5\nb = float(a)\nc = 2j\nd = 1\ne = int('3')\n")
    assert _float_sites(tree) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_literal_or_call(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _float_sites(tree)
    assert lines == [], f"{path.name}: float literal or float() call at line(s) {lines}"
