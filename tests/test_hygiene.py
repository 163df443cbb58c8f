"""Source hygiene of the circm package, read with the stdlib ``ast``:
no module keeps an import it does not use, no top-level private
function or class outlives its last caller, and no function binds a
local or takes a parameter it never reads."""

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(fn: ast.AST):
    """The nodes of fn's body outside the functions, lambdas and classes
    it defines, whose names are their own."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(fn: ast.AST) -> set[str]:
    """Names fn binds (by assignment, loop, with, except or walrus, not as
    parameters) that neither fn nor a function inside it ever reads; a
    name starting with ``_`` is exempt."""
    nodes = list(own_nodes(fn))
    bound = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound |= {node.name for node in nodes if isinstance(node, ast.ExceptHandler) and node.name}
    declared = {name for node in nodes if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
    read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name for name in bound - declared - read if not name.startswith("_")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_is_read(path):
    tree = parse(path)
    unread = [f"{fn.name}: {name}" for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS) for name in sorted(unread_locals(fn))]
    assert not unread, f"{path.name} binds locals it never reads: {unread}"


def unread_parameters(fn: ast.AST) -> list[str]:
    """Parameters of fn, a function or lambda, that its body never reads,
    a function inside it included; ``self``, ``cls`` and a name starting
    with ``_`` are exempt."""
    args = fn.args
    params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg)))]
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    read = {node.id for part in body for node in ast.walk(part) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in params if name not in read and name not in ("self", "cls") and not name.startswith("_")]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a dunder method's parameters are the interpreter's protocol, whether
    # its body needs them or not
    tree = parse(path)
    unread = [
        f"{getattr(fn, 'name', 'lambda')} (line {fn.lineno}): {name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (*FUNCTIONS, ast.Lambda)) and not is_dunder(getattr(fn, "name", ""))
        for name in unread_parameters(fn)
    ]
    assert not unread, f"{path.name} takes parameters it never reads: {unread}"


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


def test_the_dropped_facet_operations_are_defined_nowhere():
    # deletion, restrict and euler_check had no caller in the package;
    # the tests keep euler_check in conftest.py
    import circm

    dropped = {"deletion", "restrict", "euler_check"}
    for path in MODULES:
        assert not top_level_definitions(parse(path)) & dropped, path.name
    for name in sorted(dropped):
        with pytest.raises(AttributeError):
            getattr(circm, name)


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
