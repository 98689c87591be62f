"""The four-stage decision pipeline."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from provpurpose import (
    ConfigurationError,
    DataRecord,
    EdgeLabel,
    FunctionCall,
    MatchValue,
    MissingHierarchyLineError,
    NullCondition,
    PartyConfig,
    Policy,
    Predicate,
    ProvenanceGraph,
    PurposeGraph,
    QueryCondition,
    Request,
    SetRef,
    StageError,
    TreeLeaf,
    VertexCondition,
    VertexType,
    decide,
    default_internal_expr,
    engine,
    load_policy,
    load_request,
    load_role_order,
    outcome_to_dict,
    policy,
    policy_from_dict,
    print_fida,
)
from conftest import CASE_STUDY
from oracles import oracle_decide
from randcases import random_decision_case, random_prohibiting_case, shared_leaves


def _null_policy(pid, ap=(), pp=(), ptype=None):
    ap, pp = frozenset(ap), frozenset(pp)
    if ptype is None:
        ptype = 3 if (ap and pp) else (2 if pp else 1)
    return Policy(pid, ptype, TreeLeaf(NullCondition()), ap=ap, pp=pp)


@pytest.fixture()
def small_pg():
    return PurposeGraph(
        ["root", "mid", "leafp"], [("root", "mid"), ("mid", "leafp")], hierarchy_line=1
    )


def test_default_internal_expr_shapes():
    assert default_internal_expr(["p"]) == SetRef("p")
    two = default_internal_expr(["p", "q"])
    assert two == FunctionCall("f_dotplus", (SetRef("p"), SetRef("q")))
    assert print_fida(default_internal_expr(["p", "q", "r"])) == (
        "f_dotplus(f_dotplus(p, q), r)"
    )
    with pytest.raises(ConfigurationError):
        default_internal_expr([])


def test_decide_single_party_single_policy(tiny_graph, small_pg):
    record = DataRecord(tiny_graph)
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid", "leafp"}),))
    outcome = decide(record, Request("anyone"), [cfg], "F3", small_pg)
    assert outcome.decided == {"mid", "leafp"}
    assert outcome.external_expr == "F3"
    trace = outcome.parties[0]
    assert trace.internal_expr == "p1"
    assert trace.result.ap == {"mid", "leafp"}
    assert outcome.attached_purposes is None


def test_decide_two_parties_intersect(tiny_graph, small_pg):
    record = DataRecord(tiny_graph)
    a = PartyConfig("a", (_null_policy("pa", ap={"mid", "leafp"}),))
    b = PartyConfig("b", (_null_policy("pb", ap={"mid"}),))
    outcome = decide(record, Request("anyone"), [a, b], "F3", small_pg)
    assert outcome.decided == {"mid"}


def test_decide_multi_policy_party_uses_dotplus(tiny_graph, small_pg):
    record = DataRecord(tiny_graph)
    cfg = PartyConfig(
        "owner",
        (
            _null_policy("mixed", ap={"mid"}, pp={"mid"}),
            _null_policy("deny", pp={"mid"}),
        ),
    )
    outcome = decide(record, Request("anyone"), [cfg], "F3", small_pg)
    trace = outcome.parties[0]
    assert trace.internal_expr == "f_dotplus(mixed, deny)"
    # f_dotplus keeps prohibitions both policies agree on; those then erase
    # the matching grant.
    assert trace.result.pp == {"mid"}
    assert outcome.decided == frozenset()


def test_dotplus_drops_lone_prohibition(tiny_graph, small_pg):
    cfg = PartyConfig(
        "owner",
        (
            _null_policy("grant", ap={"mid"}),
            _null_policy("deny", pp={"mid"}),
        ),
    )
    outcome = decide(DataRecord(tiny_graph), Request("anyone"), [cfg], "F3", small_pg)
    # only one of the two policies prohibits "mid", so the intersection of
    # prohibited sides is empty and the grant stands
    assert outcome.decided == {"mid"}


def test_decide_honors_internal_expr_override(tiny_graph, small_pg):
    record = DataRecord(tiny_graph)
    cfg = PartyConfig(
        "owner",
        (
            _null_policy("grant", ap={"mid"}),
            _null_policy("deny", pp={"mid"}),
        ),
        internal_expr="grant - deny",
    )
    outcome = decide(record, Request("anyone"), [cfg], "F3", small_pg)
    # componentwise subtraction: the deny policy's allowed side is empty, so
    # the grant survives; prohibitions subtract to nothing as well
    assert outcome.decided == {"mid"}


def test_party_parses_its_expression_once(tiny_graph, small_pg, monkeypatch):
    calls = []
    parse = engine.parse_fida

    def counting_parse(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(engine, "parse_fida", counting_parse)
    cfg = PartyConfig(
        "owner",
        (_null_policy("grant", ap={"mid"}), _null_policy("deny", pp={"mid"})),
        internal_expr="grant - deny",
    )
    record = DataRecord(tiny_graph)
    first = outcome_to_dict(decide(record, Request("anyone"), [cfg], "F3", small_pg))
    second = outcome_to_dict(decide(record, Request("anyone"), [cfg], "F3", small_pg))
    assert first == second
    assert first["parties"][0]["internal"] == "grant - deny"
    assert calls == ["grant - deny"]


def test_malformed_internal_expr_fails_on_every_call(tiny_graph, small_pg):
    # The empty text is parsed like any other, not taken for "no expression".
    for text in ("p1 +", "", "  "):
        cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid"}),), internal_expr=text)
        for _ in range(2):
            with pytest.raises(StageError) as err:
                decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
            assert err.value.stage == "internal-merge"


def test_non_applicable_policy_contributes_nothing(tiny_graph, small_pg):
    miss = Policy(
        "miss", 1, TreeLeaf(VertexCondition(VertexType.AGENT, "bob")), ap=frozenset({"mid"})
    )
    cfg = PartyConfig("owner", (miss,))
    outcome = decide(DataRecord(tiny_graph), Request("anyone"), [cfg], "F3", small_pg)
    assert outcome.decided == frozenset()
    pid, d = outcome.parties[0].decisions[0]
    assert pid == "miss" and not d.applicable and d.guards_ok
    assert d.tree_value.label == "types-only"


def test_attached_purposes_narrow_decision(tiny_graph, small_pg):
    record = DataRecord(tiny_graph, attached_purposes=frozenset({"leafp"}))
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid", "leafp"}),))
    outcome = decide(record, Request("anyone"), [cfg], "F3", small_pg)
    assert outcome.decided == {"leafp"}
    assert outcome.attached_purposes == {"leafp"}


def test_stage_labels():
    pg = PurposeGraph(["only"], [], hierarchy_line=0)
    record = DataRecord(ProvenanceGraph())
    # policy purposes outside the graph -> first stage
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"ghost"}),))
    with pytest.raises(StageError) as err:
        decide(record, Request("s"), [cfg], "F3", pg)
    assert err.value.stage == "policy-evaluation"

    ok = PartyConfig("owner", (_null_policy("p1", ap={"only"}),))
    bad_internal = PartyConfig(
        "owner", (_null_policy("p1", ap={"only"}),), internal_expr="nope"
    )
    with pytest.raises(StageError) as err:
        decide(record, Request("s"), [bad_internal], "F3", pg)
    assert err.value.stage == "internal-merge"

    with pytest.raises(StageError) as err:
        decide(record, Request("s"), [ok], "F3(owner, ghost)", pg)
    assert err.value.stage == "external-merge"

    carrying = DataRecord(ProvenanceGraph(), attached_purposes=frozenset({"ghost"}))
    with pytest.raises(StageError) as err:
        decide(carrying, Request("s"), [ok], "F3", pg)
    assert err.value.stage == "attached-purpose-intersection"


def test_graph_without_hierarchy_line_fails_internal_merge(tiny_graph):
    # the default f_dotplus fold never cuts, so only the per-policy check catches it
    pg = PurposeGraph(["root", "mid"], [("root", "mid")])
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid"}), _null_policy("p2", ap={"root"})))
    with pytest.raises(StageError) as err:
        decide(DataRecord(tiny_graph), Request("anyone"), [cfg], "F3", pg)
    assert err.value.stage == "internal-merge"
    assert isinstance(err.value.cause, MissingHierarchyLineError)


def test_duplicate_policy_ids_rejected(tiny_graph, small_pg):
    cfg = PartyConfig("owner", (_null_policy("dup", ap={"mid"}), _null_policy("dup", pp={"mid"})))
    with pytest.raises(StageError) as err:
        decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
    assert err.value.stage == "policy-evaluation"


def test_no_parties_rejected(tiny_graph, small_pg):
    with pytest.raises(ConfigurationError):
        decide(DataRecord(tiny_graph), Request("s"), [], "F3", small_pg)


def test_duplicate_party_names_rejected(tiny_graph, small_pg):
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid"}),))
    with pytest.raises(ConfigurationError):
        decide(DataRecord(tiny_graph), Request("s"), [cfg, cfg], "F3", small_pg)


def test_thousand_policy_default_fold(tiny_graph, small_pg):
    policies = tuple(
        _null_policy(f"p{i}", ap={"mid"} if i % 2 else {"leafp"}) for i in range(1000)
    )
    outcome = decide(
        DataRecord(tiny_graph), Request("s"), [PartyConfig("owner", policies)], "F3", small_pg
    )
    assert outcome.decided == {"mid", "leafp"}
    internal = outcome_to_dict(outcome)["parties"][0]["internal"]
    assert internal.startswith("f_dotplus(" * 999 + "p0, p1)")


def test_party_without_policies_rejected(tiny_graph, small_pg):
    with pytest.raises(StageError):
        decide(DataRecord(tiny_graph), Request("s"), [PartyConfig("x", ())], "F3", small_pg)


def test_guard_failure_shows_in_trace(tiny_graph, small_pg):
    guarded = Policy(
        "g1",
        4,
        TreeLeaf(NullCondition()),
        ap=frozenset({"mid"}),
        subjects=frozenset({"admins"}),
    )
    cfg = PartyConfig("owner", (guarded,))
    outcome = decide(DataRecord(tiny_graph), Request("viewer"), [cfg], "F3", small_pg)
    _, d = outcome.parties[0].decisions[0]
    assert not d.guards_ok and not d.applicable
    assert d.tree_value.label == "full"
    assert outcome.decided == frozenset()


def test_role_order_unlocks_guard(tiny_graph, small_pg):
    guarded = Policy(
        "g1",
        4,
        TreeLeaf(NullCondition()),
        ap=frozenset({"mid"}),
        subjects=frozenset({"admins"}),
    )
    cfg = PartyConfig("owner", (guarded,))
    order = {"viewer": frozenset({"admins"})}
    outcome = decide(
        DataRecord(tiny_graph), Request("viewer"), [cfg], "F3", small_pg, role_order=order
    )
    assert outcome.decided == {"mid"}


def test_outcome_to_dict_shape(tiny_graph, small_pg):
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid"}),))
    record = DataRecord(tiny_graph, attached_purposes=frozenset({"mid"}))
    outcome = decide(record, Request("anyone"), [cfg], "F3", small_pg)
    doc = outcome_to_dict(outcome)
    assert doc["decided"] == ["mid"]
    assert doc["external"] == "F3"
    assert doc["attached_purposes"] == ["mid"]
    (party,) = doc["parties"]
    assert party["party"] == "owner" and party["internal"] == "p1"
    (pol,) = party["policies"]
    assert pol == {
        "id": "p1",
        "applicable": True,
        "guards_ok": True,
        "tree_value": "full",
        "ap": ["mid"],
        "pp": [],
    }


def test_case_study_end_to_end():
    from provpurpose import load_graph, load_purpose_graph

    graph = load_graph(str(CASE_STUDY / "graph.json"))
    pg = load_purpose_graph(str(CASE_STUDY / "purposes.json"))
    request, attached = load_request(str(CASE_STUDY / "request.json"))
    role_order = load_role_order(str(CASE_STUDY / "roles.json"))
    source = load_policy(str(CASE_STUDY / "source_policy.json"), default_id="source_policy")
    repo = load_policy(
        str(CASE_STUDY / "repository_policy.json"), default_id="repository_policy"
    )
    record = DataRecord(graph, category="assignment", attached_purposes=attached)
    outcome = decide(
        record,
        request,
        [PartyConfig("source", (source,)), PartyConfig("repository", (repo,))],
        "F3",
        pg,
        role_order=role_order,
    )
    assert outcome.decided == {"education"}
    for trace in outcome.parties:
        for _, d in trace.decisions:
            assert d.applicable


# -- one leaf memo per decision ------------------------------------------------------

def _tree_values(outcome):
    return [d.tree_value for trace in outcome.parties for _, d in trace.decisions]


def test_graph_change_between_decisions_is_seen(tiny_graph, small_pg):
    doc = {
        "provenance_partitions": {"c": {"partition": {
            "vertices": [{"ref": "p", "type": "process", "name": "ingest"},
                         {"ref": "a", "type": "agent", "name": "bob"}],
            "edges": [["p", "a", "wasControlledBy"]],
        }}},
        "AP": ["mid"],
    }
    first, second = policy_from_dict(doc, "pa"), policy_from_dict(doc, "pb")
    assert first.tree.condition is second.tree.condition
    parties = [PartyConfig("A", (first,)), PartyConfig("B", (second,))]
    record = DataRecord(tiny_graph)
    before = decide(record, Request("anyone"), parties, "F3", small_pg)
    assert before.decided == frozenset()
    assert _tree_values(before) == [MatchValue.TYPES, MatchValue.TYPES]

    bob = tiny_graph.add_vertex(VertexType.AGENT, "bob")
    [ingest] = tiny_graph.ids_of(VertexType.PROCESS, "ingest")
    tiny_graph.add_edge(ingest, bob, EdgeLabel.WAS_CONTROLLED_BY)
    after = decide(record, Request("anyone"), parties, "F3", small_pg)
    assert after.decided == {"mid"}
    assert _tree_values(after) == [MatchValue.FULL, MatchValue.FULL]


def test_shared_query_leaf_reads_each_request(tiny_graph, small_pg, monkeypatch):
    calls = []
    eval_atomic = policy.eval_atomic

    def counting_eval_atomic(cond, graph, query_attrs=None):
        calls.append(dict(query_attrs))
        return eval_atomic(cond, graph, query_attrs)

    monkeypatch.setattr(policy, "eval_atomic", counting_eval_atomic)
    cond = QueryCondition(VertexType.ARTIFACT, "report", "size", Predicate.LEQ)  # report has size 4
    parties = [
        PartyConfig(name, (Policy(f"{name}1", 1, TreeLeaf(cond), ap=frozenset({"mid"})),)) for name in "AB"
    ]
    record = DataRecord(tiny_graph)
    small = decide(record, Request("anyone", query_attrs={"size": 2}), parties, "F3", small_pg)
    large = decide(record, Request("anyone", query_attrs={"size": 8}), parties, "F3", small_pg)
    assert _tree_values(small) == [MatchValue.NAMES, MatchValue.NAMES]
    assert small.decided == frozenset()
    assert _tree_values(large) == [MatchValue.FULL, MatchValue.FULL]
    assert large.decided == {"mid"}
    assert calls == [{"size": 2}, {"size": 8}]  # once per decision, for both parties


# -- whole decisions against the oracle ----------------------------------------------

def _text(tree):
    if tree[0] == "ref":
        return tree[1]
    if tree[0] == "call":
        return f"{tree[1]}({', '.join(map(_text, tree[2]))})"
    return f"({_text(tree[2])} {tree[1]} {_text(tree[3])})"


# A case is built from one seed: drawing its dozens of policies and expression
# trees through strategies makes each example many times slower than a seeded
# generator does, and the rare cases that tell merges apart need many examples.
# Cases share leaf objects, so `decide` answers many leaves from its memo; the
# oracle evaluates every leaf afresh. A third of the cases carry prohibitions
# into F5-F8, which the general cases almost never do.
def test_decide_matches_the_oracle():
    shared = []

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        case = (random_prohibiting_case if rng.random() < 1 / 3 else random_decision_case)(rng)
        outcome = decide(
            DataRecord(case.graph, category=case.category, attached_purposes=case.attached),
            Request(case.subject),
            [PartyConfig(name, policies, None if expr is None else _text(expr)) for name, policies, expr in case.parties],
            case.external if isinstance(case.external, str) else _text(case.external),
            PurposeGraph(case.purposes, case.edges, hierarchy_line=case.line),
            case.role_order,
        )
        decided, results = oracle_decide(**case._asdict())
        assert outcome.decided == decided
        assert [(t.result.ap, t.result.pp) for t in outcome.parties] == results
        shared.append(shared_leaves(case))

    check()
    assert any(policies for policies, _ in shared) and any(parties for _, parties in shared)
