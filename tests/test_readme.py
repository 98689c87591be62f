"""The README's quick start runs as printed."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs_and_its_comments_hold():
    names: dict = {}
    exec(compile(_quick_start(), "README.md quick start", "exec"), names)
    pg = names["pg"]
    assert pg.descendants("Admin") == {"Admin", "Record", "Analysis"}
    assert pg.rank_of("Analysis") == 3
    assert pg.partial_descendants("Admin", 2) == {"Admin", "Record"}
    assert names["merged"].allowed() == {"Admin", "Marketing"}
    assert names["decided"] == {"education"}
