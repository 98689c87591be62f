"""How a graph stores attribute payloads is known to `provenance` alone.

An attribute lives on an Attribute vertex that a ``hasAttributes`` edge links
to, and `ProvenanceGraph._payload` is the one reader of that rule. The search
in `matching` reads payloads through it, so a copy of the rule there would
drift from it unnoticed; this reads `matching.py` and finds none.
"""

import ast
from pathlib import Path

MATCHING = Path(__file__).resolve().parent.parent / "src" / "provpurpose" / "matching.py"

STORAGE_NAMES = {"ATTRIBUTE", "HAS_ATTRIBUTES"}
STORAGE_TEXTS = {"Attribute", "hasAttributes"}


def _storage_reads(source: str) -> list[str]:
    """Each place the source names the storage rule: a member, its text, or a vertex's `.attrs`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id.lstrip("_") in STORAGE_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and (node.attr in STORAGE_NAMES or node.attr == "attrs"):
            found.append(f".{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in STORAGE_TEXTS:
            found.append(repr(node.value))
    return found


def test_the_checker_finds_each_form_of_the_rule():
    source = (
        "a = VertexType.ATTRIBUTE\n"
        "b = EdgeLabel.HAS_ATTRIBUTES.value\n"
        "c = _HAS_ATTRIBUTES\n"
        "d = vertex.attrs.get(item)\n"
        "e = 'hasAttributes'\n"
    )
    assert sorted(_storage_reads(source)) == sorted(
        [".ATTRIBUTE", ".HAS_ATTRIBUTES", "_HAS_ATTRIBUTES", ".attrs", "'hasAttributes'"]
    )


def test_matching_reads_payloads_only_through_the_provenance_reader():
    assert _storage_reads(MATCHING.read_text(encoding="utf-8")) == []
