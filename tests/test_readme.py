"""The README's quick start and `merge` examples run as printed."""

import json
import re
import shlex
from pathlib import Path

from provpurpose.cli import main

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
