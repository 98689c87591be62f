"""The package root's import block is its public API, stated once.

``provpurpose.__all__`` is derived from the names the import block binds, so
a name imported after the derivation, or a private helper that leaks into it,
would make the two disagree.
"""

import ast
from pathlib import Path
from types import ModuleType

import provpurpose

INIT = Path(__file__).resolve().parent.parent / "src" / "provpurpose" / "__init__.py"


def _imported_names() -> list[str]:
    """Every name the package's own modules give the root, in import order."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_is_exactly_the_imported_names():
    names = _imported_names()
    assert len(names) == len(set(names))
    assert len(provpurpose.__all__) == len(set(provpurpose.__all__))
    assert set(provpurpose.__all__) == set(names)


def test_star_import_binds_the_public_names_and_no_submodule():
    namespace: dict = {}
    exec("from provpurpose import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(_imported_names())
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
