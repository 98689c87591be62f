"""The README's quick start and `merge` examples run as printed, and its
operator tables, like those of the module docstrings, copy the code's."""

import json
import re
import shlex
from pathlib import Path

from provpurpose import algebra, external
from provpurpose.algebra import BasicOp, InternalFunction, PrecedenceKind
from provpurpose.cli import main
from provpurpose.external import ExternalFunction

README = Path(__file__).parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _merge_set_examples() -> list[tuple[list[str], dict]]:
    """The first block under "### merge": each command's arguments and the output it shows."""
    section = README.read_text(encoding="utf-8").split("### merge", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1).replace("\\\n", " ")
    return [
        (shlex.split(command)[1:], json.loads(shown))
        for command, shown in re.findall(r"^(provpurpose .*)\n# (\{.*\})$", block, re.MULTILINE)
    ]


def test_quick_start_runs_and_its_comments_hold():
    names: dict = {}
    exec(compile(_quick_start(), "README.md quick start", "exec"), names)
    pg = names["pg"]
    assert pg.descendants("Admin") == {"Admin", "Record", "Analysis"}
    assert pg.rank_of("Analysis") == 3
    assert pg.partial_descendants("Admin", 2) == {"Admin", "Record"}
    assert names["merged"].ap == {"Admin", "Marketing"}
    assert names["decided"] == {"education"}


def test_merge_set_examples_print_their_results(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    examples = _merge_set_examples()
    assert [shown for _, shown in examples] == [{"result": ["w", "y"]}, {"result": ["Admin"]}]
    for argv, shown in examples:
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == shown


# -- operator tables -------------------------------------------------------------------

def _readme_section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"### {title}\n", 1)[1].split("\n#", 1)[0]


def _readme_rows(section: str) -> dict[str, list[str]]:
    """A markdown table's rows: the first cell's `name` -> the other cells."""
    rows = re.findall(r"^\| `([\w-]+)` +\|(.*)\|$", section, re.MULTILINE)
    return {name: [cell.strip() for cell in rest.split("|")] for name, rest in rows}


def _docstring_rows(doc: str, first: str) -> dict[str, list[str]]:
    """A reStructuredText table's rows whose first cell matches `first` -> the ``op`` cells."""
    rows = re.findall(rf"^({first}) +(``.*)$", doc, re.MULTILINE)
    cells = r"``([^`]+)``( \(self\))?"
    return {name: ["".join(cell) for cell in re.findall(cells, rest)] for name, rest in rows}


def _set_function(cell: str):
    """A merge rule cell's set function. f_boxdot's high prohibit, README's `-`*
    and the docstring's ``-`` (self), subtracts a set from itself: None."""
    if cell in ("`-`*", "- (self)"):
        return None
    return algebra._MEANING[BasicOp(cell.strip("`"))]


def test_merge_tables_copy_the_code():
    section = _readme_section("Hierarchical sets and the thirteen merge functions")
    for table in (_readme_rows(section), _docstring_rows(algebra.__doc__, r"f_\w+")):
        rules = {InternalFunction(name): tuple(map(_set_function, cells)) for name, cells in table.items()}
        assert rules == algebra._MERGE_RULES
    for text in (section, algebra.__doc__):
        nary = re.search(r"by the rule\s*\(([^)]*)\)", text).group(1)
        assert tuple(map(_set_function, nary.split(", "))) == algebra._NARY_RULE


def test_cross_party_tables_copy_the_code():
    section = _readme_section("Cross-party functions")
    for table in (_readme_rows(section), _docstring_rows(external.__doc__, r"F\d")):
        rules = {
            ExternalFunction(name): tuple(BasicOp(op.strip("`")) for op in ops) for name, ops in table.items()
        }
        assert rules == external._PARTY_RULES


def test_precedence_and_binding_tables_copy_the_code():
    extreme = {"minimum rank": min, "maximum rank": max, "best": min, "worst": max}
    readme = {
        PrecedenceKind(name): (extreme[compares], winner.startswith("smaller"))
        for name, (compares, winner) in _readme_rows(_readme_section("Basic operations and precedence")).items()
    }
    bullet = r"^\* ``(\w+)``: the operand whose (best|worst) member sits (higher|lower)"
    bullets = re.findall(bullet, algebra.__doc__, re.MULTILINE)
    docstring = {PrecedenceKind(name): (extreme[member], sits == "higher") for name, member, sits in bullets}
    assert readme == docstring == algebra._RANKING
    tiers = re.search(r"tight \(([^)]*)\)\s+above loose \(([^)]*)\)", _readme_section("Expression syntax"))
    for ops, binding in zip(tiers.groups(), (2, 1)):
        assert {BasicOp(op.strip("`")) for op in ops.split(", ")} == {
            op for op, strength in algebra._BINDING.items() if strength == binding
        }
