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


def is_private(name: str) -> bool:
    # a dunder such as a module's __getattr__ is a hook the interpreter calls
    return name.startswith("_") and not name.endswith("__")


def test_every_private_helper_is_referenced():
    trees = {p.name: parse(p) for p in MODULES}
    used = set().union(*map(read_names, trees.values()), *map(attribute_names, trees.values()))
    dead = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and is_private(node.name) and node.name not in used
    ]
    assert not dead, f"private helpers nobody refers to: {dead}"


def top_level_definitions(tree: ast.Module) -> set[str]:
    """Names a module defines itself at top level: functions, classes and
    assigned names, not names it imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def export_table() -> dict[str, str]:
    """``__init__``'s table of exported name -> defining submodule."""
    tree = parse(SRC / "__init__.py")
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_EXPORTS"]]
    return ast.literal_eval(table)


def test_every_export_names_a_public_definition_of_its_module():
    table = export_table()
    defined = {module: top_level_definitions(parse(SRC / f"{module}.py")) for module in set(table.values())}
    wrong = [f"{name} -> {module}" for name, module in table.items() if name.startswith("_") or name not in defined[module]]
    assert not wrong, f"export table entries that name no public top-level definition of their module: {wrong}"


def test_init_binds_no_public_name_outside_the_table():
    # a public name __init__ binds itself (an eager import, a def, an
    # assignment) bypasses the table, which loads each module on first use
    tree = parse(SRC / "__init__.py")
    top_imports = ast.Module(body=[node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))], type_ignores=[])
    bound = top_level_definitions(tree) | set(imported_names(top_imports))
    public = sorted(name for name in bound if not name.startswith("_"))
    assert not public, f"__init__ binds public names that are missing from the export table: {public}"


# Modules the package must not import: each costs start-up time that no
# answer needs (dataclasses pulls in inspect; Fraction arithmetic is done
# on integers).
UNWANTED_IMPORTS = {"dataclasses", "fractions"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unwanted_import(path):
    tree = parse(path)
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert not roots & UNWANTED_IMPORTS, f"{path.name} imports {sorted(roots & UNWANTED_IMPORTS)}"
