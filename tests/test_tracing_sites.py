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


def test_a_traced_case_study_decision_reaches_every_policy_and_matching_site(monkeypatch):
    """A compile step that stops calling a wrapped site would leave its span at 0 calls.

    The merge stages count too: `decide` reaches `eval_fida` and
    `merge_parties` through `engine`'s module attributes, which the tracer rebinds.
    """
    monkeypatch.syspath_prepend(str(DECIDEBENCH))
    import tracing

    from provpurpose import engine, load_graph, load_policy, load_purpose_graph, load_request, load_role_order
    from conftest import CASE_STUDY

    request, attached = load_request(str(CASE_STUDY / "request.json"))
    record = engine.DataRecord(load_graph(str(CASE_STUDY / "graph.json")), "assignment", attached)
    parties = [
        engine.PartyConfig(name, (load_policy(str(CASE_STUDY / f"{name}_policy.json")),))
        for name in ("source", "repository")
    ]
    pg = load_purpose_graph(str(CASE_STUDY / "purposes.json"))
    role_order = load_role_order(str(CASE_STUDY / "roles.json"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_decision(0)
        engine.decide(record, request, parties, "F3", pg, role_order)
    finally:
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.calls))
    # the source policy's leaf is a path, the repository policy's a partition
    for name in (
        "policy.evaluate_policy",
        "policy.guards_pass",
        "policy.eval_access_tree",
        "matching.match_path",
        "matching.match_partition",
        "algebra.eval_fida",
        "external.merge_parties",
    ):
        assert calls[name] > 0, name
