"""Band assembly has one path in the library: `cohomology` writes every
matrix from per-mode symbols and does not reach into the relative or
Dolbeault containers.  The symbolic reference that the matrices are compared
against (materialize, apply, decompose) lives in tests/oracles.py."""

import ast
from pathlib import Path

COHOMOLOGY = Path(__file__).resolve().parent.parent / "src" / "pairform" / "cohomology.py"
REFERENCE_NAMES = {"materialize", "decompose", "wrap", "unwrap", "apply", "_operator_matrix"}


def _tree():
    return ast.parse(COHOMOLOGY.read_text(), filename=str(COHOMOLOGY))


def test_cohomology_imports_nothing_from_relative_or_dolbeault():
    imported = set()
    for node in ast.walk(_tree()):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {m for m in imported if m.split(".")[-1] in ("relative", "dolbeault")}, imported


def test_cohomology_defines_no_symbolic_reference():
    defined = {node.name for node in ast.walk(_tree())
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & REFERENCE_NAMES, sorted(defined & REFERENCE_NAMES)
