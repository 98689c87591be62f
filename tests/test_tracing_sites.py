"""The benchmark tracer's call sites all still exist in the package.

``decidebench/tracing.py`` rebinds package attributes by name and reports a
span it cannot wrap as unmeasured, so a renamed or deleted site would only
show in the benchmark's own slow tests. This reads its table and resolves
every site the way the tracer does.
"""

from pathlib import Path

DECIDEBENCH = Path(__file__).resolve().parent.parent / "decidebench"


def test_every_tracer_site_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(DECIDEBENCH))
    import tracing

    missing = [
        site
        for sites in tracing.SITES.values()
        for site in sites
        if tracing._resolve(site) == (None, None)
    ]
    assert missing == []
