"""No package module imports a name it never uses or keeps a private name nothing uses.

An unused import is a dead dependency: it hides which module really needs
which, and it survives every refactor that stops using it. A private
module-level name that nothing references is dead code of the same kind.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "provpurpose"

# decidebench/tracing.py wraps these names where they are bound, so they stay
# until the tracer reads its sites from the modules that call them (ROADMAP item 2).
PINNED = {("engine", "split_result"), ("external", "precedence_total")}


def _unused_imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(path.stem, name) for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        site
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for site in _unused_imports(path)
    ]
    assert sorted(set(unused) - PINNED) == []
    assert PINNED <= set(unused), "a pinned import is used again; unpin it"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(statement: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return [node.id for target in targets if target for node in ast.walk(target) if isinstance(node, ast.Name)]


def _unreferenced_private_names() -> list[tuple[str, str]]:
    """(module, name) of each private module-level name that no package code
    references: not its own module outside the statement that defines it,
    nor another module by import or attribute."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    imported = {(node.module, alias.name) for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    dead = []
    for module, tree in trees.items():
        loads = [
            {node.id for node in ast.walk(statement) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            for statement in tree.body
        ]
        for i, statement in enumerate(tree.body):
            for name in filter(_is_private, _defined_names(statement)):
                used_here = any(name in names for j, names in enumerate(loads) if j != i)
                if not (used_here or (module, name) in imported or name in attributes):
                    dead.append((module, name))
    return dead


def test_no_private_module_level_name_goes_unreferenced():
    assert _unreferenced_private_names() == []
