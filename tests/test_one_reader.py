"""Each field of an input object has one reader: the object's constructor.

A loader reads only its document's shape: objects, arrays, keys, defaults,
JSON attribute values and the ``"*"`` wildcard. It hands every field as it
is to the constructor, which reads it by the `_docs` rules, so a document and
a Python caller are read alike. A loader that read a field itself would be a
second rule for it, free to drift from the constructor's; this reads the
loaders and finds none.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "provpurpose"

LOADERS = {
    "policy.py": (
        "policy_from_dict",
        "_partition_from_dict",
        "_constraint",
        "_decode_condition",
        "_tree_from_dict",
        "request_from_dict",
    ),
    "external.py": ("party_result_from_dict",),
    "purposes.py": ("purpose_graph_from_dict",),
    "cli.py": ("_party_from_file",),
}

# The field readers a constructor calls; `_docs.names` is one as well.
READERS = {"text", "member", "integer", "party"}
# Name sets that no constructor owns, which a loader reads itself.
UNOWNED_NAMES = {'"attached_purposes"'}


def _field_reads(source: str, loaders: tuple[str, ...]) -> list[str]:
    """Each place a loader of `source` names a field reader, as "loader: reader"."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in loaders):
            continue
        unowned = {  # the `_docs.names` of each call that reads an unowned name set
            id(node.func)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and node.args[1].value in UNOWNED_NAMES
        }
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_docs":
                if node.attr in READERS or (node.attr == "names" and id(node) not in unowned):
                    found.append(f"{fn.name}: _docs.{node.attr}")
            elif isinstance(node, ast.Name) and node.id == "vertex_type_from_json":
                found.append(f"{fn.name}: {node.id}")
    return found


def _vertex_type_members(source: str) -> int:
    """How many calls look a vertex type up as an enum member: ``member(VertexType, ...)``."""
    return len([
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "VertexType"
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "member"
    ])


def test_the_checker_finds_each_form_of_a_field_read():
    source = (
        "def load(doc):\n"
        "    a = _docs.text(doc['a'], 'a')\n"
        "    b = _docs.member(Op, doc['b'], 'b')\n"
        "    c = _docs.integer(doc['c'], 'c')\n"
        "    d = vertex_type_from_json(doc['d'])\n"
        "    e = _docs.names(doc['e'], '\"e\"')\n"
        "    read = _docs.text\n"
        "    f = _docs.names(doc['f'], '\"attached_purposes\"')\n"
        "    return _docs.obj(doc, 'g'), _docs.array(doc['h'], 'h')\n"
        "def other(doc):\n"
        "    return _docs.text(doc, 'x')\n"
    )
    assert sorted(_field_reads(source, ("load",))) == sorted(
        ["load: _docs.text", "load: _docs.member", "load: _docs.integer", "load: vertex_type_from_json",
         "load: _docs.names", "load: _docs.text"]
    )
    assert _vertex_type_members("a = _docs.member(VertexType, v, 'vertex type')\nb = member(EdgeLabel, v, 'x')\n") == 1


def test_no_loader_reads_a_field_that_a_constructor_reads():
    found = [
        read
        for module, loaders in LOADERS.items()
        for read in _field_reads((SRC / module).read_text(encoding="utf-8"), loaders)
    ]
    assert found == []


def test_every_loader_named_here_exists():
    for module, loaders in LOADERS.items():
        defined = {
            node.name for node in ast.walk(ast.parse((SRC / module).read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)
        }
        assert set(loaders) <= defined, module


def test_vertex_types_have_one_rule():
    """Every vertex type is read by `vertex_type_from_json`, never looked up as an enum member."""
    assert sum(_vertex_type_members(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")) == 0
