"""No package module imports a name it never uses.

An unused import is a dead dependency: it hides which module really needs
which, and it survives every refactor that stops using it.
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
