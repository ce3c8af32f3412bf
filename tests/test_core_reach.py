"""Every module-level function and class of the library is reached from the
library itself or from the benchmark harness, except the paper-level
constructions listed here, which only the tests call.  The scan matches by
name: a definition counts as reached when its name is used anywhere else, so
`relative.closed_pair` counts as reached through the inner function of the
same name in `suites.symplectic_suite`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pairform"
PERFBENCH = ROOT / "perfbench"

# paper-level constructions that only the tests call
TEST_ONLY = {
    "cohomology.de_rham_complex",
    "dolbeault.lie_exactness_witness",
    "dolbeault.split_d",
    "pair.class_combine",
    "pair.class_embed",
    "pair.class_split",
    "pair.transfer",
    "relative.rel_wedge",
}


def _trees(root):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(root.rglob("*.py"))}


def _named(trees, strings=False) -> set:
    """Every Name, Attribute and import alias in the trees, and with
    `strings` every identifier inside a string constant."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.update(node.name.split(".") + [node.asname or ""])
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(re.findall(r"\w+", node.value))
    return out


def test_only_the_paper_level_constructions_are_reached_from_the_tests_alone():
    trees = _trees(SRC)
    assert len(trees) >= 10
    named = _named(trees) | _named(_trees(PERFBENCH), strings=True)
    unreached = {f"{path.stem}.{node.name}"
                 for path, tree in trees.items() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and node.name not in named}
    assert unreached == TEST_ONLY
