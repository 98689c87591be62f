"""Four-valued matching: predicates, partitions, paths, targets."""

import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provpurpose import (
    AttrCondition,
    AttrConstraint,
    EdgeLabel,
    MatchValue,
    NullCondition,
    PathPattern,
    PathStep,
    PatternEdge,
    PatternSyntaxError,
    PatternVertex,
    Predicate,
    ProvenanceGraph,
    ProvenancePartition,
    QueryCondition,
    SearchLimitError,
    TargetCondition,
    TypeMismatchError,
    VertexCondition,
    VertexType,
    WILDCARD_TOKEN,
    condition_from_dict,
    eval_atomic,
    eval_predicate,
    graph_from_dict,
    match_and,
    match_or,
    match_partition,
    match_path,
    parse_path_pattern,
    parse_target,
)
from provpurpose import matching
from conftest import complete_dag_doc, cycle_partition_doc
from oracles import (
    oracle_match_partition,
    oracle_match_path,
    reference_match_partition,
    reference_match_path,
)
from randcases import (
    random_dag_partition,
    random_lineage_dag,
    random_partition,
    random_path_pattern,
    random_provenance_graph,
)


# -- value chain ----------------------------------------------------------------

def test_value_chain_order():
    assert MatchValue.FULL > MatchValue.NAMES > MatchValue.TYPES > MatchValue.NONE
    assert match_and(MatchValue.FULL, MatchValue.TYPES) is MatchValue.TYPES
    assert match_or(MatchValue.NONE, MatchValue.NAMES) is MatchValue.NAMES


def test_labels_round_trip():
    for v in MatchValue:
        assert MatchValue.from_label(v.label) is v
    with pytest.raises(ValueError):
        MatchValue.from_label("partial")


# -- predicates -------------------------------------------------------------------

def test_predicates_on_ints_and_strings():
    assert eval_predicate(Predicate.LEQ, 3, 5)
    assert not eval_predicate(Predicate.GT, 3, 5)
    assert eval_predicate(Predicate.NEQ, "a", "b")
    assert eval_predicate(Predicate.CONTAINS, "assignments", "assignment")
    assert not eval_predicate(Predicate.CONTAINS, "assignment", "assignments")


def test_predicates_on_timestamps():
    early = datetime(2009, 1, 1)
    late = datetime(2009, 6, 1)
    assert eval_predicate(Predicate.LT, early, late)
    assert eval_predicate(Predicate.GEQ, late, early)


def test_predicate_kind_mismatch_raises():
    with pytest.raises(TypeMismatchError):
        eval_predicate(Predicate.EQ, 3, "3")
    with pytest.raises(TypeMismatchError):
        eval_predicate(Predicate.CONTAINS, 3, 3)
    with pytest.raises(TypeMismatchError):
        eval_predicate(Predicate.EQ, True, 1)


@pytest.mark.parametrize("pred", list(Predicate))
def test_naive_and_aware_timestamps_are_different_kinds(pred, tiny_graph):
    naive = datetime(2020, 1, 1, 12)
    aware = datetime(2021, 1, 1, tzinfo=timezone.utc)
    for left, right in ((naive, aware), (aware, naive)):
        with pytest.raises(TypeMismatchError, match="naive timestamp"):
            eval_predicate(pred, left, right)
    # a constraint that cannot be compared is unsatisfied, as int against str is
    tiny_graph.add_vertex(VertexType.ARTIFACT, "stamped", {"at": naive})
    cond = AttrCondition(VertexType.ARTIFACT, "stamped", "at", pred, aware)
    assert eval_atomic(cond, tiny_graph) is MatchValue.NAMES


# -- partitions -------------------------------------------------------------------

def test_partition_shape_errors():
    v0 = PatternVertex("x", VertexType.AGENT)
    with pytest.raises(PatternSyntaxError):
        ProvenancePartition(())
    with pytest.raises(PatternSyntaxError):
        ProvenancePartition((v0, PatternVertex("x", VertexType.PROCESS)))
    with pytest.raises(PatternSyntaxError):
        ProvenancePartition((v0,), (PatternEdge("x", "ghost"),))
    with pytest.raises(PatternSyntaxError):
        ProvenancePartition((v0, PatternVertex("y", VertexType.PROCESS)))  # disconnected


def test_partition_strata(tiny_graph):
    full = ProvenancePartition(
        (
            PatternVertex("p", VertexType.ARTIFACT, "report", (AttrConstraint("size", Predicate.LEQ, 10),)),
            PatternVertex("q", VertexType.PROCESS, "ingest"),
        ),
        (PatternEdge("p", "q", EdgeLabel.WAS_GENERATED_BY),),
    )
    assert match_partition(full, tiny_graph) is MatchValue.FULL

    bad_attr = ProvenancePartition(
        (PatternVertex("p", VertexType.ARTIFACT, "report", (AttrConstraint("size", Predicate.GT, 10),)),),
    )
    assert match_partition(bad_attr, tiny_graph) is MatchValue.NAMES

    bad_name = ProvenancePartition((PatternVertex("p", VertexType.ARTIFACT, "ledger"),))
    assert match_partition(bad_name, tiny_graph) is MatchValue.TYPES

    g = ProvenanceGraph()
    g.add_vertex(VertexType.AGENT, "solo")
    absent_type = ProvenancePartition((PatternVertex("p", VertexType.ARTIFACT, "x"),))
    assert match_partition(absent_type, g) is MatchValue.NONE


def test_partition_missing_attr_is_not_full(tiny_graph):
    p = ProvenancePartition(
        (PatternVertex("p", VertexType.ARTIFACT, "report", (AttrConstraint("missing", Predicate.EQ, 1),)),),
    )
    assert match_partition(p, tiny_graph) is MatchValue.NAMES


@pytest.mark.parametrize("sizes", [(1, 5), (5, 1)])
def test_partition_reads_the_last_payload_holding_an_item(sizes):
    g = ProvenanceGraph()
    art = g.add_vertex(VertexType.ARTIFACT, "report")
    for i, size in enumerate(sizes):
        g.add_vertex(VertexType.ATTRIBUTE, f"bundle {i}", {"size": size}, vid=f"b{i}")
        g.add_edge(art, f"b{i}", EdgeLabel.HAS_ATTRIBUTES)
    big = PatternVertex("a", VertexType.ARTIFACT, "report", (AttrConstraint("size", Predicate.GT, 3),))
    expected = MatchValue.FULL if sizes[1] > 3 else MatchValue.NAMES
    assert match_partition(ProvenancePartition((big,)), g) is expected
    # an Attribute vertex is checked against its own payload
    bundle = PatternVertex("b", VertexType.ATTRIBUTE, "bundle 0", (AttrConstraint("size", Predicate.GT, 3),))
    expected = MatchValue.FULL if sizes[0] > 3 else MatchValue.NAMES
    assert match_partition(ProvenancePartition((bundle,)), g) is expected


def test_partition_type_mismatch_counts_as_unsatisfied(tiny_graph):
    # comparing the string attribute with an int cannot hold at the full stratum
    p = ProvenancePartition(
        (PatternVertex("p", VertexType.ARTIFACT, "report", (AttrConstraint("fmt", Predicate.LT, 5),)),),
    )
    assert match_partition(p, tiny_graph) is MatchValue.NAMES


def test_embedding_is_injective():
    g = ProvenanceGraph()
    a = g.add_vertex(VertexType.ARTIFACT, "x")
    p = g.add_vertex(VertexType.PROCESS, "gen")
    g.add_edge(a, p, EdgeLabel.WAS_GENERATED_BY)
    two_artifacts = ProvenancePartition(
        (
            PatternVertex("u", VertexType.ARTIFACT),
            PatternVertex("v", VertexType.ARTIFACT),
            PatternVertex("w", VertexType.PROCESS),
        ),
        (
            PatternEdge("u", "w", EdgeLabel.WAS_GENERATED_BY),
            PatternEdge("v", "w", EdgeLabel.WAS_GENERATED_BY),
        ),
    )
    # only one artifact exists, so the two pattern artifacts cannot both embed
    assert match_partition(two_artifacts, g) is MatchValue.NONE


def test_match_agrees_with_exhaustive_oracle_sample():
    rng = random.Random(7)
    for _ in range(120):
        g = random_provenance_graph(rng)
        pattern = random_partition(rng, g)
        assert int(match_partition(pattern, g)) == oracle_match_partition(pattern, g)


def test_match_invariant_under_id_renaming():
    rng = random.Random(11)
    for _ in range(40):
        g = random_provenance_graph(rng)
        pattern = random_partition(rng, g)
        renamed = ProvenanceGraph()
        mapping = {vid: f"renamed:{vid}" for vid in g.vertices}
        for vid, v in g.vertices.items():
            renamed.add_vertex(v.vtype, v.name, dict(v.attrs) or None, vid=mapping[vid])
        for e in g.edges:
            renamed.add_edge(mapping[e.src], mapping[e.dst], e.label, e.refined)
        assert match_partition(pattern, g) is match_partition(pattern, renamed)


def test_match_monotone_under_graph_growth():
    rng = random.Random(13)
    for _ in range(40):
        g = random_provenance_graph(rng)
        pattern = random_partition(rng, g)
        before = match_partition(pattern, g)
        # adding fresh structure can only help
        extra_a = g.add_vertex(VertexType.ARTIFACT, "extra")
        extra_p = g.add_vertex(VertexType.PROCESS, "extra")
        g.add_edge(extra_a, extra_p, EdgeLabel.WAS_GENERATED_BY)
        assert match_partition(pattern, g) >= before


# -- path patterns ----------------------------------------------------------------

def test_parse_path_pattern_round_trip():
    text = f"wasSubmittedBy|Submit, {WILDCARD_TOKEN}, wasGradedby|Grade"
    pattern = parse_path_pattern(text)
    assert pattern.steps[1] is None
    assert pattern.text() == text
    assert parse_path_pattern(pattern.text()) == pattern


def test_path_pattern_rejects_bad_shapes():
    with pytest.raises(PatternSyntaxError):
        parse_path_pattern("")
    with pytest.raises(PatternSyntaxError):
        parse_path_pattern("noseparator")
    with pytest.raises(PatternSyntaxError):
        parse_path_pattern(f"{WILDCARD_TOKEN}, used|x")
    with pytest.raises(PatternSyntaxError):
        parse_path_pattern(f"used|x, {WILDCARD_TOKEN}")
    with pytest.raises(PatternSyntaxError):
        PathPattern((None,))


def test_path_match_on_submission_graph(submission_graph):
    g = submission_graph
    full = parse_path_pattern(f"wasSubmittedBy|Submit, {WILDCARD_TOKEN}, wasGradedby|Grade")
    assert match_path(full, g) is MatchValue.FULL
    # the refined labels also work without the wildcard in between
    direct = parse_path_pattern("wasSubmittedBy|Submit, used|homework_1, wasGradedby|Grade")
    assert match_path(direct, g) is MatchValue.FULL
    # a step still matches through its entry-edge label when the name is absent
    by_label = parse_path_pattern(f"wasSubmittedBy|Submit, {WILDCARD_TOKEN}, used|Regrade")
    assert match_path(by_label, g) is MatchValue.FULL
    # but a step whose label and name both never occur kills every walk
    missing = parse_path_pattern(
        f"wasSubmittedBy|Submit, {WILDCARD_TOKEN}, wasTriggeredBy|Regrade"
    )
    assert match_path(missing, g) is MatchValue.NONE


def test_path_first_step_may_use_outgoing_edge(tiny_graph):
    # "report" enters no edge; its first step matches through its own out-edge label
    p = parse_path_pattern("wasGeneratedBy|nosuchname")
    assert match_path(p, tiny_graph) is MatchValue.FULL
    # later steps never get that privilege: only "report" has a generated-by
    # out-edge, and the walk it starts has no second generated-by entry beyond
    # ingest, whose own out-edge is control-flavored
    chain = parse_path_pattern("wasGeneratedBy|nosuchname, wasGeneratedBy|whatever")
    assert match_path(chain, tiny_graph) is MatchValue.FULL  # entry edge report->ingest
    absent = parse_path_pattern("used|nosuchname")
    assert match_path(absent, tiny_graph) is MatchValue.NONE


def test_path_wildcard_can_absorb_nothing(submission_graph):
    p = parse_path_pattern(f"used|Submit, {WILDCARD_TOKEN}, used|homework_1")
    assert match_path(p, submission_graph) is MatchValue.FULL


def test_path_match_agrees_with_walk_oracle():
    rng = random.Random(17)
    labels = ["used", "wasGeneratedBy", "wasControlledBy", "wasRefinedBy", "a", "b"]
    checked = 0
    for _ in range(150):
        g = random_provenance_graph(rng)
        k = rng.randint(1, 3)
        steps = []
        for i in range(k):
            if 0 < i < k - 1 and rng.random() < 0.4:
                steps.append(None)
            else:
                steps.append(PathStep(rng.choice(labels), rng.choice(["a", "b", "c", "nope"])))
        pattern = PathPattern(tuple(steps))
        got = match_path(pattern, g)
        want = MatchValue.FULL if oracle_match_path(pattern, g) else MatchValue.NONE
        assert got is want
        checked += 1
    assert checked == 150


# -- targets ----------------------------------------------------------------------

def test_parse_target_desugars_to_wildcard_path():
    part = parse_target('/process[name="Submit"]/artifact[size<=4]')
    assert [v.vtype for v in part.vertices] == [VertexType.PROCESS, VertexType.ARTIFACT]
    assert part.vertices[0].name == "Submit"
    assert part.vertices[1].name is None
    assert part.vertices[1].constraints == (AttrConstraint("size", Predicate.LEQ, 4),)
    assert part.edges == (PatternEdge("t0", "t1", None),)


def test_parse_target_value_kinds():
    part = parse_target('/agent[tag="x"][n=3][when>=2009-03-01]')
    values = [c.operand for c in part.vertices[0].constraints]
    assert values == ["x", 3, datetime(2009, 3, 1)]


def test_parse_target_errors():
    for bad in ("", "agent", "/robot", '/agent[name="x"', "/agent[~~]"):
        with pytest.raises(PatternSyntaxError):
            parse_target(bad)


def test_target_matches_graph(tiny_graph):
    cond = TargetCondition('/artifact[name="report"]/process[name="ingest"]')
    assert eval_atomic(cond, tiny_graph) is MatchValue.FULL


# -- atomic conditions --------------------------------------------------------------

def test_atomic_conditions(tiny_graph):
    assert eval_atomic(NullCondition(), tiny_graph) is MatchValue.FULL
    assert eval_atomic(VertexCondition(VertexType.AGENT, "alice"), tiny_graph) is MatchValue.FULL
    assert eval_atomic(VertexCondition(VertexType.AGENT, "bob"), tiny_graph) is MatchValue.TYPES
    assert (
        eval_atomic(AttrCondition(VertexType.ARTIFACT, "report", "size", Predicate.EQ, 4), tiny_graph)
        is MatchValue.FULL
    )


def test_query_condition_uses_request_attrs(tiny_graph):
    cond = QueryCondition(VertexType.ARTIFACT, "report", "size", Predicate.LEQ)
    assert eval_atomic(cond, tiny_graph, {"size": 10}) is MatchValue.FULL
    assert eval_atomic(cond, tiny_graph, {"size": 1}) is MatchValue.NAMES
    assert eval_atomic(cond, tiny_graph, {}) is MatchValue.NONE
    assert eval_atomic(cond, tiny_graph, None) is MatchValue.NONE


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(list(MatchValue)), min_size=1, max_size=5),
    st.lists(st.sampled_from(list(MatchValue)), min_size=1, max_size=5),
)
def test_and_or_bounds(xs, ys):
    assert match_and(*xs, *ys) is match_and(match_and(*xs), match_and(*ys))
    assert match_or(*xs, *ys) is match_or(match_or(*xs), match_or(*ys))
    assert match_and(*xs) <= match_or(*xs)


# -- the indexed search against the previous matcher ----------------------------------

def test_partition_search_agrees_with_previous_matcher():
    rng = random.Random(23)
    strata = set()
    for _ in range(100):
        g = random_lineage_dag(rng, rng.randint(20, 80))
        for _ in range(6):
            pattern = random_dag_partition(rng, g)
            got = match_partition(pattern, g)
            assert got is reference_match_partition(pattern, g), pattern
            strata.add(got)
    assert strata == set(MatchValue)


def test_path_walk_agrees_with_previous_matcher():
    rng = random.Random(29)
    found = 0
    for _ in range(100):
        g = random_lineage_dag(rng, rng.randint(20, 80))
        for _ in range(6):
            pattern = random_path_pattern(rng)
            got = match_path(pattern, g)
            assert got is reference_match_path(pattern, g), pattern.text()
            found += got is MatchValue.FULL
    assert 0 < found < 600


def _derivation_chain(n: int) -> ProvenanceGraph:
    g = ProvenanceGraph()
    for k in range(n):
        g.add_vertex(VertexType.ARTIFACT, f"ds_{k}", vid=f"ds_{k}")
        if k:
            g.add_edge(f"ds_{k}", f"ds_{k - 1}", EdgeLabel.WAS_DERIVED_FROM)
    return g


def test_path_walk_descends_a_3000_vertex_chain():
    g = _derivation_chain(3000)
    # only names match these steps, so the walk must cross the whole chain
    assert match_path(parse_path_pattern(f"used|ds_2999, {WILDCARD_TOKEN}, used|ds_0"), g) is MatchValue.FULL
    assert match_path(parse_path_pattern(f"used|ds_2999, {WILDCARD_TOKEN}, used|ds_x"), g) is MatchValue.NONE
    assert match_path(parse_path_pattern(f"used|ds_0, {WILDCARD_TOKEN}, used|ds_2999"), g) is MatchValue.NONE


def test_match_sees_the_graph_grow_after_a_match():
    g = ProvenanceGraph()
    art = g.add_vertex(VertexType.ARTIFACT, "report")
    vertex = VertexCondition(VertexType.PROCESS, "ingest")
    attr = AttrCondition(VertexType.PROCESS, "ingest", "workers", Predicate.GEQ, 2)
    generated = ProvenancePartition(
        (PatternVertex("a", VertexType.ARTIFACT, "report"), PatternVertex("p", VertexType.PROCESS, "ingest")),
        (PatternEdge("a", "p", EdgeLabel.WAS_GENERATED_BY),),
    )
    assert eval_atomic(vertex, g) is MatchValue.NONE
    assert match_partition(generated, g) is MatchValue.NONE

    other = g.add_vertex(VertexType.PROCESS, "clean")
    assert eval_atomic(vertex, g) is MatchValue.TYPES
    proc = g.add_vertex(VertexType.PROCESS, "ingest", {"workers": 4})
    assert eval_atomic(vertex, g) is MatchValue.FULL
    assert eval_atomic(attr, g) is MatchValue.FULL
    assert match_partition(generated, g) is MatchValue.NONE

    g.add_edge(art, other, EdgeLabel.WAS_GENERATED_BY)
    assert match_partition(generated, g) is MatchValue.TYPES
    g.add_edge(art, proc, EdgeLabel.WAS_GENERATED_BY)
    assert match_partition(generated, g) is MatchValue.FULL


def test_single_vertex_conditions_derive_their_partition_once(tiny_graph, monkeypatch):
    import provpurpose.matching as matching

    seen = []
    real = matching.match_partition
    monkeypatch.setattr(matching, "match_partition", lambda p, g: seen.append(p) or real(p, g))
    vertex = VertexCondition(VertexType.AGENT, "alice")
    attr = AttrCondition(VertexType.ARTIFACT, "report", "size", Predicate.EQ, 4)
    for _ in range(2):
        assert eval_atomic(vertex, tiny_graph) is MatchValue.FULL
        assert eval_atomic(attr, tiny_graph) is MatchValue.FULL
    assert seen == [vertex.partition, attr.partition] * 2
    assert seen[0] is seen[2] and seen[1] is seen[3]
    # the derived partition is not part of the condition's value
    assert vertex == VertexCondition(VertexType.AGENT, "alice")
    assert "partition" not in repr(vertex)


def test_plan_is_connected_and_starts_at_the_most_selective_vertex():
    part = ProvenancePartition(
        (
            PatternVertex("x", VertexType.AGENT),
            PatternVertex("y", VertexType.PROCESS),
            PatternVertex("z", VertexType.ARTIFACT, "report"),
            PatternVertex("w", VertexType.ARTIFACT, None, (AttrConstraint("k", Predicate.EQ, 1),)),
        ),
        (
            PatternEdge("y", "x", EdgeLabel.WAS_CONTROLLED_BY),
            PatternEdge("z", "y"),
            PatternEdge("z", "y", EdgeLabel.WAS_GENERATED_BY),
            PatternEdge("w", "x"),
            PatternEdge("y", "y"),
        ),
    )
    root, *later = part.plan
    assert root.vertex.ref == "z" and root.anchor is None
    assert [p.vertex.ref for p in later] == ["y", "x", "w"]
    # the labelled edge of the parallel pair anchors y; the wildcard is checked
    assert later[0].anchor == PatternEdge("z", "y", EdgeLabel.WAS_GENERATED_BY)
    assert later[0].checks == (PatternEdge("z", "y"),)
    assert part.plan is part.plan


def test_levels_leave_out_a_level_that_checks_nothing_more_and_are_shared():
    plain = PatternVertex("a", VertexType.AGENT)
    constrained = PatternVertex("b", VertexType.AGENT, None, (AttrConstraint("k", Predicate.EQ, 1),))
    named = PatternVertex("c", VertexType.AGENT, "alice")
    full, names, types = MatchValue.FULL, MatchValue.NAMES, MatchValue.TYPES
    for vertices, levels in (
        ((plain,), (full,)),
        ((constrained,), (full, names)),
        ((named,), (full, types)),
        ((named, constrained), (full, names, types)),
    ):
        edges = (PatternEdge(vertices[0].ref, vertices[-1].ref),) if len(vertices) > 1 else ()
        first, second = ProvenancePartition(vertices, edges), ProvenancePartition(vertices, edges)
        # one tuple per shape, not one per partition
        assert first.levels == levels and first.levels is second.levels


# -- the step budget ------------------------------------------------------------

def test_one_vertex_pattern_is_never_refused_by_the_step_budget(monkeypatch):
    monkeypatch.setattr(matching, "MAX_SEARCH_STEPS", 0)
    g = ProvenanceGraph()
    for i in range(10):
        g.add_vertex(VertexType.ARTIFACT, "doc", {"n": i})

    def doc_with(pred: Predicate) -> ProvenancePartition:
        constraint = AttrConstraint("n", pred, 9)
        return ProvenancePartition((PatternVertex("d", VertexType.ARTIFACT, "doc", (constraint,)),))

    assert match_partition(doc_with(Predicate.EQ), g) is MatchValue.FULL
    assert match_partition(doc_with(Predicate.GT), g) is MatchValue.NAMES


def test_a_search_over_the_step_budget_raises(monkeypatch):
    # five artifacts used by one process, none generated by it: each is a step that fails its check
    g = ProvenanceGraph()
    proc = g.add_vertex(VertexType.PROCESS, "run")
    for i in range(5):
        g.add_edge(proc, g.add_vertex(VertexType.ARTIFACT, f"in{i}"), EdgeLabel.USED)
    part = ProvenancePartition(
        (PatternVertex("p", VertexType.PROCESS), PatternVertex("a", VertexType.ARTIFACT)),
        (PatternEdge("p", "a", EdgeLabel.USED), PatternEdge("a", "p")),
    )
    monkeypatch.setattr(matching, "MAX_SEARCH_STEPS", 5)
    assert match_partition(part, g) is MatchValue.NONE
    monkeypatch.setattr(matching, "MAX_SEARCH_STEPS", 4)
    with pytest.raises(SearchLimitError, match="after 4 steps"):
        match_partition(part, g)


def test_a_cycle_pattern_over_a_complete_dag_raises_instead_of_running_on():
    graph = graph_from_dict(complete_dag_doc(32))
    cycle = condition_from_dict({"partition": cycle_partition_doc(8)})
    with pytest.raises(SearchLimitError):
        match_partition(cycle, graph)
