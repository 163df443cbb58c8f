"""Source hygiene of the circm package, read with the stdlib ``ast``:
no module keeps an import it does not use, and no top-level private
function or class outlives its last caller."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "circm"
MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def attribute_names(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def imported_names(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.extend(a.asname or a.name for a in node.names)
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    unused = [name for name in imported_names(tree) if name not in read_names(tree)]
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_every_private_helper_is_referenced():
    trees = {p.name: parse(p) for p in MODULES}
    used = set().union(*map(read_names, trees.values()), *map(attribute_names, trees.values()))
    dead = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") and node.name not in used
    ]
    assert not dead, f"private helpers nobody refers to: {dead}"
