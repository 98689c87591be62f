"""Four-valued matching: predicates, partitions, paths, targets."""

import random
import re
from datetime import datetime, timezone
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provpurpose import (
    AttrCondition,
    AttrConstraint,
    EdgeLabel,
    InputFormatError,
    MatchValue,
    NullCondition,
    PartyConfig,
    PathPattern,
    PathStep,
    PatternEdge,
    PatternSyntaxError,
    PatternVertex,
    Policy,
    Predicate,
    ProvenanceGraph,
    ProvenancePartition,
    QueryCondition,
    SearchLimitError,
    TargetCondition,
    TreeBranch,
    TreeLeaf,
    TreeOp,
    TypeMismatchError,
    VertexCondition,
    VertexType,
    WILDCARD_TOKEN,
    condition_from_dict,
    eval_access_tree,
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
from conftest import coarser_plan_case, complete_dag_doc, cycle_partition_doc, party_groups
from oracles import (
    oracle_match_partition,
    oracle_match_path,
    reference_match_partition,
    reference_match_path,
)
from randcases import (
    graded_group,
    random_dag_partition,
    random_lineage_dag,
    random_partition,
    random_path_pattern,
    random_provenance_graph,
    same_skeleton,
    skeleton_family,
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
    with pytest.raises(TypeMismatchError, match="^cannot apply '=' to float and float$"):
        eval_predicate(Predicate.EQ, 1.5, 1.5)


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


def _holds(pv, vid, g):
    """Whether the search's constraint filter keeps the vertex."""
    return list(matching._holding(pv, [vid], g)) == [vid]


def test_constraints_read_the_payloads_in_place_as_attributes_of_merges_them():
    """Two bundles of one artifact hold `n` and `s`: the later one wins, for every predicate and vertex."""
    g = ProvenanceGraph()
    art = g.add_vertex(VertexType.ARTIFACT, "report")
    payloads = ({"n": 1, "s": "ab", "t": datetime(2020, 1, 1)}, {"n": 5, "s": "b"})
    for i, payload in enumerate(payloads):
        g.add_vertex(VertexType.ATTRIBUTE, f"bundle {i}", payload, vid=f"b{i}")
        g.add_edge(art, f"b{i}", EdgeLabel.HAS_ATTRIBUTES)
    proc = g.add_vertex(VertexType.PROCESS, "ingest")
    g.add_edge(art, proc, EdgeLabel.WAS_GENERATED_BY)  # an out-edge to no payload

    def merged_holds(constraints, vid):
        attrs = g.attributes_of(vid)
        for c in constraints:
            try:
                if c.item not in attrs or not eval_predicate(c.pred, attrs[c.item], c.operand):
                    return False
            except TypeMismatchError:
                return False
        return True

    # `~` over an int or a timestamp is the test of no kind, which holds nowhere
    operands = (0, 1, 3, 5, 6, "a", "b", "ab", datetime(2020, 1, 1), datetime(2021, 1, 1))
    constraints = [
        AttrConstraint(item, pred, operand)
        for item in ("n", "s", "t", "missing") for pred in Predicate for operand in operands
    ]
    rng = random.Random(41)
    for vid in (art, "b0", "b1", proc):
        vtype = g.vertex(vid).vtype
        for c in constraints:
            assert _holds(PatternVertex("v", vtype, None, (c,)), vid, g) is merged_holds((c,), vid)
        for _ in range(200):
            pair = tuple(rng.sample(constraints, 2))
            assert _holds(PatternVertex("v", vtype, None, pair), vid, g) is merged_holds(pair, vid)
    # the artifact reads n and s from the later bundle, t from the earlier one
    assert _holds(
        PatternVertex("v", VertexType.ARTIFACT, None, (
            AttrConstraint("n", Predicate.EQ, 5),
            AttrConstraint("s", Predicate.EQ, "b"),
            AttrConstraint("t", Predicate.EQ, datetime(2020, 1, 1)),
        )),
        art,
        g,
    )


def test_partition_type_mismatch_counts_as_unsatisfied(tiny_graph):
    # comparing the string attribute with an int cannot hold at the full stratum
    p = ProvenancePartition(
        (PatternVertex("p", VertexType.ARTIFACT, "report", (AttrConstraint("fmt", Predicate.LT, 5),)),),
    )
    assert match_partition(p, tiny_graph) is MatchValue.NAMES


def test_embedding_is_injective(monkeypatch):
    g = ProvenanceGraph()
    a = g.add_vertex(VertexType.ARTIFACT, "x", {"k": 1})
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
    # nor do they when a group of partitions of that skeleton is graded against its embeddings
    u, v, w = two_artifacts.vertices
    group = tuple(
        ProvenancePartition(
            (PatternVertex("u", u.vtype, None, (AttrConstraint("k", Predicate.GEQ, j),)), v, w), two_artifacts.edges
        )
        for j in range(3)
    )
    searches = []
    search = matching._search
    monkeypatch.setattr(
        matching, "_search", lambda p, graph, found: searches.append((p, found is not None)) or search(p, graph, found)
    )
    memo = {}
    assert _graded_values(group, g, memo) == [MatchValue.NONE] * 3
    coarser = group[0].coarser[0]
    assert memo[-id(coarser)] == []  # enumerated, and found none
    # so the coarser partition's value comes from that enumeration, with no second search of it
    assert memo[id(coarser)] is MatchValue.NONE and searches == [(coarser, True)]
    assert [int(v) for v in _graded_values(group, g, memo)] == [oracle_match_partition(p, g) for p in group]


def _graded_values(group, g, memo):
    """Each partition's value in `group`, a tuple compiled here, graded once through `memo`.

    The packed values are settled into the memo and read back from it, as a
    decision's trees read a graded partition: without a search, unless the
    coarser's enumeration took too many steps.
    """
    grader = matching._Grader(tuple(group))
    grader.settle(matching.match_group(grader, g, memo), memo)
    return [memo[id(p)] for p in group]


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
    ends = "path pattern must not start or end with a wildcard"
    for text, message in (
        ("", "empty path pattern"),
        ("noseparator", "step 'noseparator' is not LABEL|NAME (at position 0)"),
        (f"{WILDCARD_TOKEN}, used|x", ends),
        (f"used|x, {WILDCARD_TOKEN}", ends),
        ("used|a, , used|b", "empty path step (at position 7)"),
        ("used|a|b", "step 'used|a|b' is not LABEL|NAME (at position 0)"),
    ):
        with pytest.raises(PatternSyntaxError, match=f"^{re.escape(message)}$"):
            parse_path_pattern(text)
    for steps, message in (((None,), ends), ((), "path pattern needs at least one step")):
        with pytest.raises(PatternSyntaxError, match=f"^{re.escape(message)}$"):
            PathPattern(steps)


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


@pytest.mark.parametrize("text", ["used|a, used|z", f"used|a, {WILDCARD_TOKEN}, used|z"])
def test_a_step_reads_the_edge_the_walk_arrived_by_whichever_came_first(text):
    """Two starts named ``a`` enter ``b``: the first by a ``wasGeneratedBy`` edge, which fails the step, then by ``used``."""
    g = ProvenanceGraph()
    first, second, b = (g.add_vertex(VertexType.PROCESS, name) for name in ("a", "a", "b"))
    g.add_edge(first, b, EdgeLabel.WAS_GENERATED_BY)
    g.add_edge(second, b, EdgeLabel.USED)
    assert match_path(parse_path_pattern(text), g) is MatchValue.FULL
    assert match_path(parse_path_pattern(text.replace("used|z", "wasTriggeredBy|z")), g) is MatchValue.NONE


def test_path_match_agrees_with_walk_oracle():
    rng = random.Random(17)
    # "Used" differs from a label's text only in case, so it must never match a used edge
    labels = ["used", "Used", "wasGeneratedBy", "wasControlledBy", "wasRefinedBy", "a", "b"]
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


def test_target_segment_types_are_case_insensitive():
    assert parse_target('/Artifact[name="r"]/PROCESS') == parse_target('/artifact[name="r"]/process')
    assert TargetCondition('/aGeNt').partition is TargetCondition("/agent").partition


def test_parse_target_errors():
    for bad, message in (
        ("", "empty target"),
        ("agent", "target must start with '/' (at position 0)"),
        ("/robot", "expected agent, artifact, or process (at position 1)"),
        # Unicode case folding would take a long s for "s"
        ("/proce\u017f\u017f", "expected agent, artifact, or process (at position 1)"),
        ('/agent[name="x"', "unclosed '[' (at position 6)"),
        ("/agent[~~]", "bad constraint '~~' (at position 6)"),
        ("/artifact[t = 2020-13-45]", "bad timestamp '2020-13-45' (at position 9)"),
        ("/artifact[k = ?]", "bad value '?' (at position 9)"),
        ("/agent/artifactx", "expected '/' before 'x' (at position 15)"),
        ('/artifact[name="a"][name="b"]', "segment names its vertex twice (at position 19)"),
    ):
        with pytest.raises(PatternSyntaxError, match=f"^{re.escape(message)}$"):
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


def test_eval_atomic_rejects_what_is_not_an_atomic_condition(tiny_graph):
    with pytest.raises(TypeError, match="^not an atomic condition: "):
        eval_atomic(object(), tiny_graph)


def test_query_condition_uses_request_attrs(tiny_graph):
    cond = QueryCondition(VertexType.ARTIFACT, "report", "size", Predicate.LEQ)
    assert eval_atomic(cond, tiny_graph, {"size": 10}) is MatchValue.FULL
    assert eval_atomic(cond, tiny_graph, {"size": 1}) is MatchValue.NAMES
    assert eval_atomic(cond, tiny_graph, {"size": "10"}) is MatchValue.NAMES  # no value of its kind
    assert eval_atomic(cond, tiny_graph, {}) is MatchValue.NONE
    assert eval_atomic(cond, tiny_graph, None) is MatchValue.NONE
    # a request attribute and an operand are decoded values: a list is neither, refused as the loader refuses it
    with pytest.raises(InputFormatError, match=r"^unsupported attribute value \[10\]$"):
        eval_atomic(cond, tiny_graph, {"size": [10]})
    with pytest.raises(InputFormatError, match=r"^unsupported attribute value \[10\]$"):
        AttrCondition(VertexType.ARTIFACT, "report", "size", Predicate.LEQ, [10])


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



@pytest.mark.parametrize("size", [1, 2])
def test_random_dag_partition_returns_on_a_graph_smaller_than_its_largest_pattern(size):
    """A pattern is drawn no larger than the graph's main vertices, so its walk ends; it once ran on forever."""
    g = ProvenanceGraph()
    report = g.add_vertex(VertexType.ARTIFACT, "report", {"k": 1})
    if size == 2:
        g.add_edge(report, g.add_vertex(VertexType.PROCESS, "Insert"), EdgeLabel.WAS_GENERATED_BY)
    for seed in range(50):
        pattern = random_dag_partition(random.Random(seed), g)
        assert 1 <= len(pattern.vertices) <= size
        assert match_partition(pattern, g) is reference_match_partition(pattern, g)


def test_partition_search_through_one_memo_agrees_with_previous_matcher():
    """Each graph's patterns, in shuffled order, share one memo, as the leaves of a decision do.

    Two of every three patterns redraw the third's constraints and often
    keep its names, so many share a coarser partition that the memo answers.
    """
    rng = random.Random(31)
    shared, strata = 0, set()
    for _ in range(100):
        g = random_lineage_dag(rng, rng.randint(20, 80))
        patterns = []
        for _ in range(2):
            base = random_dag_partition(rng, g)
            patterns += [base, same_skeleton(rng, base), same_skeleton(rng, base)]
        rng.shuffle(patterns)
        memo = {}
        for pattern in patterns:
            got = match_partition(pattern, g, memo)
            assert got is reference_match_partition(pattern, g), pattern
            strata.add(got)
        # the memo holds only coarser partitions, one or two levels down, each with its own value
        below = {}
        for p in patterns:
            while p.coarser is not None:
                p = p.coarser[0]
                below[id(p)] = p
        for key, value in memo.items():
            assert value is reference_match_partition(below[key], g)
        first = [p.coarser[0] for p in patterns if p.coarser is not None]
        shared += len(first) - len(set(map(id, first)))
    assert shared > 100 and strata == set(MatchValue)

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
    monkeypatch.setattr(matching, "match_partition", lambda p, g, memo=None: seen.append(p) or real(p, g, memo))
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


def test_coarser_drops_constraints_then_names_and_equal_coarsers_are_one_object():
    plain = PatternVertex("a", VertexType.AGENT)
    constrained = PatternVertex("b", VertexType.AGENT, None, (AttrConstraint("k", Predicate.EQ, 1),))
    named = PatternVertex("c", VertexType.AGENT, "alice")
    both = PatternVertex("c", VertexType.AGENT, "alice", (AttrConstraint("k", Predicate.LT, 2),))
    names, types = MatchValue.NAMES, MatchValue.TYPES
    for vertices, coarser, level in (
        ((plain,), None, None),
        ((constrained,), (PatternVertex("b", VertexType.AGENT),), names),
        ((named,), (PatternVertex("c", VertexType.AGENT),), types),
        ((named, constrained), (named, PatternVertex("b", VertexType.AGENT)), names),
        ((both, plain), (named, plain), names),
    ):
        edges = (PatternEdge(vertices[0].ref, vertices[-1].ref),) if len(vertices) > 1 else ()
        first, second = ProvenancePartition(vertices, edges), ProvenancePartition(vertices, edges)
        if coarser is None:
            assert first.coarser is None
            continue
        assert first.coarser == (ProvenancePartition(coarser, edges), level)
        # one object per distinct coarser partition, held by every finer one
        assert first.coarser[0] is second.coarser[0] and first.coarser is first.coarser
    named_twice = ProvenancePartition((named,))
    assert named_twice.coarser[0].coarser is None
    # a decoded leaf is the coarser partition of its value, whichever comes first
    def decoded(name, *attrs):
        return condition_from_dict({"partition": {
            "vertices": [
                {"ref": "a", "type": "artifact", "name": name, "attrs": list(attrs)},
                {"ref": "p", "type": "process", "name": "ingest"},
            ],
            "edges": [["a", "p", "wasGeneratedBy"]],
        }})

    leaf_first = decoded("leaf first")
    assert decoded("leaf first", ["size", ">", 10]).coarser[0] is leaf_first
    coarser_first = decoded("coarser first", ["size", ">", 10]).coarser[0]
    assert decoded("coarser first") is coarser_first
    # and so are the partitions conditions derive, built in Python too
    t, n = VertexType.ARTIFACT, "report"
    assert (
        VertexCondition(t, n).partition
        is AttrCondition(t, n, "size", Predicate.GT, 10).partition.coarser[0]
        is QueryCondition(t, n, "size", Predicate.GT).partition
    )
    target = TargetCondition('/artifact[name="report"]')
    assert TargetCondition('/artifact[name="report"][size > 10]').partition.coarser[0] is target.partition
    assert TargetCondition(' /artifact[ name = "report" ]').partition is target.partition


def test_an_operand_that_never_holds_is_not_equal_to_one_that_can(tiny_graph):
    """``~`` over an int never holds, and is a different pattern from a test against the int that can.

    An operand of no kind, such as `True` or `1.5`, is refused at
    construction, in the words the loader refuses its document form in.
    """
    assert AttrConstraint("size", Predicate.CONTAINS, 1).kind is None and AttrConstraint("size", Predicate.GEQ, 1).kind
    one, never = (AttrCondition(VertexType.ARTIFACT, "report", "size", p, 1) for p in (Predicate.GEQ, Predicate.CONTAINS))
    assert one.partition is not never.partition
    assert [eval_atomic(c, tiny_graph) for c in (one, never)] == [MatchValue.FULL, MatchValue.NAMES]
    for operand, words in ((True, "boolean attribute values are not supported"), (1.5, "unsupported attribute value 1.5")):
        for make in (partial(AttrConstraint, "size", Predicate.GEQ), partial(AttrCondition, "artifact", "report", "size", ">=")):
            with pytest.raises(InputFormatError) as err:
                make(operand)
            assert str(err.value) == words


def test_a_value_or_operand_of_no_kind_never_holds_when_graded():
    """A stored `True` has no kind, nor has ``~`` over an int: a constraint that reads either holds nowhere, searched or graded.

    `add_vertex` refuses `True`, so it is written in place on the Attribute vertex.
    """
    g = ProvenanceGraph()
    report = g.add_vertex(VertexType.ARTIFACT, "report", {"flag": 0, "n": 1})
    g.vertices[f"{report}:att"].attrs["flag"] = True
    EQ, CONTAINS = Predicate.EQ, Predicate.CONTAINS
    parts = tuple(
        ProvenancePartition((PatternVertex("a", VertexType.ARTIFACT, "report", (AttrConstraint(item, p, v),)),))
        for item, p, v in (("n", EQ, 1), ("flag", CONTAINS, 1), ("n", CONTAINS, 1), ("flag", EQ, 1))
    )
    memo = {}
    # one pass grades them all against the report's one embedding
    graded = _graded_values(parts, g, memo)
    assert graded == [match_partition(p, g) for p in parts] == [MatchValue.FULL] + [MatchValue.NAMES] * 3


def _counting(monkeypatch):
    """Record each partition search and each enumeration of a coarser partition's embeddings."""
    searched, enumerated = [], []
    find, enumerate_all = matching._find_embedding, matching._all_embeddings
    monkeypatch.setattr(matching, "_find_embedding", lambda p, g: searched.append(p) or find(p, g))
    monkeypatch.setattr(matching, "_all_embeddings", lambda p, g: enumerated.append(p) or enumerate_all(p, g))
    return searched, enumerated


def test_a_group_of_one_skeleton_enumerates_its_coarser_once(tiny_graph, monkeypatch):
    searched, enumerated = _counting(monkeypatch)

    def generated(*constraints):
        return ProvenancePartition(
            (
                PatternVertex("a", VertexType.ARTIFACT, "report", constraints),
                PatternVertex("p", VertexType.PROCESS, "ingest"),
            ),
            (PatternEdge("a", "p", EdgeLabel.WAS_GENERATED_BY),),
        )

    # the report has size 4 and format pdf, so each fails FULL and is NAMES
    parts = (
        generated(AttrConstraint("size", Predicate.GT, 10)),
        generated(AttrConstraint("fmt", Predicate.EQ, "doc")),
        generated(AttrConstraint("size", Predicate.LT, 4), AttrConstraint("fmt", Predicate.EQ, "pdf")),
    )
    # the skeleton's unconstrained partition as a decoded leaf, met last through the same memo
    leaf = condition_from_dict({"partition": {
        "vertices": [
            {"ref": "a", "type": "artifact", "name": "report"},
            {"ref": "p", "type": "process", "name": "ingest"},
        ],
        "edges": [["a", "p", "wasGeneratedBy"]],
    }})
    memo = {}
    # one call enumerates the coarser's embeddings and grades all three against them: none held, the rest NAMES
    group = matching._Grader(parts)
    packed = matching.match_group(group, tiny_graph, memo)
    assert packed == MatchValue.NAMES and group.width == 5
    # each is settled from that grading into the memo, with no search; a second call enumerates nothing
    group.settle(packed, memo)
    assert [memo[id(p)] for p in parts] == [MatchValue.NAMES] * 3
    assert matching.match_group(group, tiny_graph, memo) == packed
    assert eval_access_tree(TreeLeaf(leaf), tiny_graph, memo=memo) is MatchValue.FULL
    coarser = parts[0].coarser[0]
    assert all(p.coarser[0] is coarser for p in parts) and leaf is coarser
    assert searched == [] and enumerated == [coarser]
    # the one embedding, as the payloads of the report and the ingest process that the graph shows
    embedding = [{"size": 4, "fmt": "pdf"}, {}]
    assert memo == {id(coarser): MatchValue.FULL, -id(coarser): [embedding], **{id(p): MatchValue.NAMES for p in parts}}
    # without that memo, match_partition searches the partition, and reads the coarser's value or else searches it
    assert match_partition(parts[2], tiny_graph, {id(coarser): MatchValue.FULL}) is MatchValue.NAMES
    assert match_partition(parts[1], tiny_graph) is MatchValue.NAMES
    assert searched == [parts[2], parts[1], coarser] and enumerated == [coarser]


@pytest.mark.parametrize("n", [2, 5, 50])
def test_a_group_of_one_skeleton_takes_1_enumeration_and_no_search(n, tiny_graph, monkeypatch):
    searched, enumerated = _counting(monkeypatch)
    rng = random.Random(n)
    orders = [p for p in Predicate if p is not Predicate.CONTAINS]
    parts = tuple(
        ProvenancePartition(
            (
                PatternVertex("a", VertexType.ARTIFACT, "report", (AttrConstraint("size", rng.choice(orders), i),)),
                PatternVertex("p", VertexType.PROCESS, "ingest"),
            ),
            (PatternEdge("a", "p", EdgeLabel.WAS_GENERATED_BY),),
        )
        for i in range(n)
    )
    memo = {}
    got = _graded_values(parts, tiny_graph, memo)
    assert searched == [] and enumerated == [parts[0].coarser[0]]
    assert got == [reference_match_partition(p, tiny_graph) for p in parts]
    assert {MatchValue.FULL, MatchValue.NAMES} <= set(got) or n == 2


def test_the_grader_gives_every_partition_of_a_group_the_value_search_gives():
    """Groups of :func:`randcases.graded_group`: every predicate, value and operand kind, repeats and several embeddings.

    One grading pass values each partition as its own search, with a fresh
    memo, and the exhaustive oracle do.
    """
    seen = {"predicates": set(), "operands": set(), "values": set(), "embeddings": set(), "held": set()}
    repeated = []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        g, group = graded_group(random.Random(seed))
        memo = {}
        grader = matching._Grader(group)
        packed = matching.match_group(grader, g, memo)
        grader.settle(packed, memo)
        got = [memo[id(p)] for p in group]
        assert got == [match_partition(p, g) for p in group] == [MatchValue(oracle_match_partition(p, g)) for p in group]
        assert packed >> 2 == sum(1 << i for i, v in enumerate(got) if v is MatchValue.FULL)
        constraints = [c for p in group for v in p.vertices for c in v.constraints]
        seen["predicates"].update(c.pred for c in constraints)
        seen["operands"].update(matching._kind(c.operand) if c.kind else "of no kind" for c in constraints)
        seen["values"].update(
            matching._kind(value) or type(value).__name__ for vid in g.vertices for value in g.attributes_of(vid).values()
        )
        seen["embeddings"].add(min(len(memo[-id(group[0].coarser[0])]), 3))
        seen["held"].update(got)
        repeated.extend(
            any(len({c.item for c in v.constraints}) < len(v.constraints) for v in p.vertices) for p in group
        )

    check()
    kinds = {"int", "str", "naive timestamp", "aware timestamp", "bool", "float"}
    operands = {"int", "str", "naive timestamp", "aware timestamp", "of no kind"}  # `~` over a non-string
    assert seen["predicates"] == set(Predicate) and seen["operands"] == operands and seen["values"] == kinds
    assert seen["embeddings"] == {0, 1, 2, 3} and {MatchValue.FULL, MatchValue.NAMES} <= seen["held"]
    assert any(repeated)


def test_a_condition_on_anothers_coarser_partition_reads_it_from_the_memo(tiny_graph, monkeypatch):
    searched, _ = _counting(monkeypatch)
    attr = AttrCondition(VertexType.ARTIFACT, "report", "size", Predicate.GT, 10)  # the report has size 4
    vertex = VertexCondition(VertexType.ARTIFACT, "report")
    tree = TreeBranch(TreeOp.AND, (TreeLeaf(attr), TreeLeaf(vertex)))
    assert eval_access_tree(tree, tiny_graph) is MatchValue.NAMES
    # the vertex condition's partition is the attribute condition's coarser: searched once, not twice
    assert attr.partition.coarser[0] is vertex.partition
    assert searched == [attr.partition, vertex.partition]


def test_families_of_one_skeleton_through_one_memo_agree_with_each_alone_and_the_oracles(monkeypatch):
    """Partitions of one skeleton, in shuffled order, share a memo as the leaves of a decision do.

    The family's groups are a party's, derived from policies over its
    partitions, and each partition that has one goes through
    :func:`match_group`, as `decide` sends it, its group's values then
    stored in the memo; an equal partition the party drops as a repeated
    shape goes through :func:`match_partition`. Each gets the value it gets
    alone, with a fresh memo, and those of the reference matcher and of the
    exhaustive oracle, which checks self-loops and so is given the pattern
    without them. No coarser partition is enumerated twice in one memo.
    """
    _, enumerated = _counting(monkeypatch)
    graded = []  # (partition, held) per member of each grading
    held_by = matching._Grader.held

    def recording(group, rows):
        held = held_by(group, rows)
        graded.extend((p, bool(held >> i & 1)) for i, p in enumerate(group.members))
        return held

    monkeypatch.setattr(matching._Grader, "held", recording)
    rng = random.Random(37)
    seen, most = set(), 0
    for _ in range(300):
        g = random_provenance_graph(rng, 6)
        family = skeleton_family(rng, g)
        rng.shuffle(family)
        cfg = PartyConfig("party", tuple(Policy(f"q{i}", 1, TreeLeaf(p)) for i, p in enumerate(family)))
        groups = party_groups(cfg)
        memo, before = {}, len(enumerated)
        for p in family:
            got = memo.get(id(p))
            if got is None:
                if id(p) in groups:
                    group = groups[id(p)]
                    valued = sum(id(q) in memo for q in group.members)
                    group.settle(matching.match_group(group, g, memo), memo)
                    got = matching._value(p, g, memo)
                    most = max(most, sum(id(q) in memo for q in group.members) - valued)
                else:
                    got = match_partition(p, g, memo)
            assert got is match_partition(p, g) is reference_match_partition(p, g), p
            loopless = ProvenancePartition(p.vertices, tuple(e for e in p.edges if e.src != e.dst))
            assert int(got) == oracle_match_partition(loopless, g), p
            seen.add((got, len(p.vertices), len(p.edges) > len(loopless.edges)))
        assert len(set(map(id, enumerated[before:]))) == len(enumerated) - before
    assert {value for value, _, _ in seen} == set(MatchValue)
    assert {k for _, k, _ in seen} == {1, 2, 3, 4} and any(loop for _, _, loop in seen)
    assert len(enumerated) > 200
    # partitions held and failed by the constraints of several vertices, and of two vertices of one type
    several = [held for p, held in graded if sum(bool(v.constraints) for v in p.vertices) > 1]
    one_type = [held for p, held in graded if len({v.vtype for v in p.vertices}) < len(p.vertices)]
    assert len(several) > 50 and len(one_type) > 50 and all(map(any, (several, one_type))) and not all(several)
    # one call valued a group of more than two partitions
    assert most > 2


def test_query_condition_falls_back_through_the_partition_it_holds(tiny_graph):
    cond = QueryCondition(VertexType.ARTIFACT, "report", "size", Predicate.LEQ)  # report has size 4
    fallback = None
    for value, expected in ((1, MatchValue.NAMES), (2, MatchValue.NAMES), (8, MatchValue.FULL)):
        memo = {}  # one decision's
        assert eval_atomic(cond, tiny_graph, {"size": value}, memo) is expected
        # the memo keys only the coarser partition, which the condition holds from its first evaluation on
        fallback = fallback or vars(cond)["partition"]
        assert cond.partition is fallback
        assert memo == ({} if expected is MatchValue.FULL else {id(fallback): MatchValue.FULL})
    assert fallback == ProvenancePartition((PatternVertex("c0", VertexType.ARTIFACT, "report"),))
    missing = QueryCondition(VertexType.ARTIFACT, "memo", "size", Predicate.LEQ)
    memo = {}
    assert eval_atomic(missing, tiny_graph, {"size": 8}, memo) is MatchValue.TYPES
    assert memo == {id(missing.partition): MatchValue.TYPES, id(missing.partition.coarser[0]): MatchValue.FULL}
    # the derived partition is not part of the condition's value
    assert cond == QueryCondition(VertexType.ARTIFACT, "report", "size", Predicate.LEQ)
    assert "partition" not in repr(cond)


@pytest.mark.parametrize(
    "query_first, bound, floor, second",
    [  # the report has size 4, and the first condition evaluated holds
        (True, 8, 2, MatchValue.FULL),
        (True, 8, 10, MatchValue.NAMES),
        (False, 8, 2, MatchValue.FULL),
        (False, 1, 2, MatchValue.NAMES),
    ],
)
def test_a_query_and_an_attribute_condition_on_one_vertex_match_through_one_memo(
    query_first, bound, floor, second, tiny_graph
):
    """Both are constrained partitions of one vertex, and each takes the value the oracle gives it."""
    t, n = VertexType.ARTIFACT, "report"
    query = QueryCondition(t, n, "size", Predicate.LEQ)  # size <= bound
    attr = AttrCondition(t, n, "size", Predicate.GT, floor)
    memo = {}  # one decision's
    values = {}
    for cond in (query, attr) if query_first else (attr, query):
        values[cond] = eval_atomic(cond, tiny_graph, {"size": bound}, memo)
    request = ProvenancePartition((PatternVertex("c0", t, n, (AttrConstraint("size", Predicate.LEQ, bound),)),))
    assert int(values[query]) == oracle_match_partition(request, tiny_graph)
    assert int(values[attr]) == oracle_match_partition(attr.partition, tiny_graph)
    assert values[attr if query_first else query] is second


# -- compiled constraints against eval_predicate ----------------------------------

_AWARE = timezone.utc
_KIND_SAMPLES = {
    "int": (4, 5, 6),
    "str": ("abc", "bc", "c"),
    "naive timestamp": (datetime(2020, 1, 1), datetime(2020, 1, 2), datetime(2020, 1, 3)),
    "aware timestamp": (
        datetime(2020, 1, 1, tzinfo=_AWARE), datetime(2020, 1, 2, tzinfo=_AWARE), datetime(2020, 1, 3, tzinfo=_AWARE)
    ),
}


def test_compiled_constraint_agrees_with_eval_predicate_on_every_kind():
    """Every predicate, operand kind and value kind; a type mismatch or a missing item fails."""
    g = ProvenanceGraph()
    vids = [g.add_vertex(VertexType.ARTIFACT, "v", {"x": value}) for vs in _KIND_SAMPLES.values() for value in vs]
    vids.append(g.add_vertex(VertexType.ARTIFACT, "v"))  # no item at all
    checked = set()
    for pred in Predicate:
        for operand_kind, (_, operand, _) in _KIND_SAMPLES.items():
            pv = PatternVertex("v", VertexType.ARTIFACT, None, (AttrConstraint("x", pred, operand),))
            for vid in vids:
                attrs = g.attributes_of(vid)
                try:
                    expected = "x" in attrs and eval_predicate(pred, attrs["x"], operand)
                except TypeMismatchError:
                    expected = False
                assert _holds(pv, vid, g) is expected, (pred, operand, attrs)
                checked.add((pred, operand_kind, expected))
            # over many candidates at once, the filter keeps the holding ones in order
            kept = [vid for vid in vids if _holds(pv, vid, g)]
            assert list(matching._holding(pv, iter(vids), g)) == kept
    assert len(checked) == 7 * 4 * 2 - 3  # `~` holds for strings alone


# -- the step budget ------------------------------------------------------------

def test_the_coarser_partitions_own_plan_sets_the_step_budget_below_full(monkeypatch):
    """Below FULL the coarser partition is searched in its own plan, which may take more steps.

    The pattern's plan starts at its constrained process; its coarser has no
    constraint and starts at the artifact, the first vertex, so it tries each
    artifact generated by the wrong process before the one `run` used.
    """
    g = ProvenanceGraph()
    run, other = g.add_vertex(VertexType.PROCESS, "run", {"k": 2}), g.add_vertex(VertexType.PROCESS, "other")
    for i in range(4):
        g.add_edge(g.add_vertex(VertexType.ARTIFACT, f"x{i}"), other, EdgeLabel.WAS_GENERATED_BY)
    made = g.add_vertex(VertexType.ARTIFACT, "made")
    g.add_edge(made, run, EdgeLabel.WAS_GENERATED_BY)
    g.add_edge(run, made, EdgeLabel.USED)
    part = ProvenancePartition(
        (
            PatternVertex("a", VertexType.ARTIFACT),
            PatternVertex("p", VertexType.PROCESS, None, (AttrConstraint("k", Predicate.EQ, 1),)),
        ),
        (PatternEdge("a", "p", EdgeLabel.WAS_GENERATED_BY), PatternEdge("p", "a", EdgeLabel.USED)),
    )
    assert part.plan[0].vertex.ref == "p" and part.coarser[0].plan[0].vertex.ref == "a"
    monkeypatch.setattr(matching, "MAX_SEARCH_STEPS", 5)
    assert match_partition(part, g) is MatchValue.NAMES
    # a search in the pattern's own plan took 1 step here; the coarser's takes 5
    monkeypatch.setattr(matching, "MAX_SEARCH_STEPS", 4)
    with pytest.raises(SearchLimitError, match="after 4 steps"):
        match_partition(part, g)


# -- the step budget ------------------------------------------------------------

def test_an_enumeration_over_the_step_budget_leaves_each_partition_to_its_own_search(monkeypatch):
    """`run` used ten artifacts, one of which it generated: the coarser's enumeration takes 10 steps.

    A partition asking for ``k >= j`` takes 10 - j steps alone, and the one
    that no artifact satisfies takes 10 in its coarser's search. At a budget
    of 5, :func:`match_group` searches each member alone, in member order,
    and raises at the first whose own search gives up, having run exactly
    the searches that member order asks for up to it.
    """
    g = ProvenanceGraph()
    run = g.add_vertex(VertexType.PROCESS, "run")
    used = [g.add_vertex(VertexType.ARTIFACT, f"x{i}", {"k": i}) for i in range(10)]
    for vid in used:
        g.add_edge(run, vid, EdgeLabel.USED)
    g.add_edge(used[-1], run, EdgeLabel.WAS_GENERATED_BY)

    def at_least(j):
        return ProvenancePartition(
            (
                PatternVertex("p", VertexType.PROCESS, "run"),
                PatternVertex("a", VertexType.ARTIFACT, None, (AttrConstraint("k", Predicate.GEQ, j),)),
            ),
            (PatternEdge("p", "a", EdgeLabel.USED), PatternEdge("a", "p", EdgeLabel.WAS_GENERATED_BY)),
        )

    def outcome(match, *args):
        try:
            return match(*args)
        except SearchLimitError:
            return "gives up"

    parts = [at_least(j) for j in range(11)]
    coarser, none_held = parts[0].coarser[0], parts[10]
    monkeypatch.setattr(matching, "MAX_SEARCH_STEPS", 5)
    alone = {id(p): outcome(match_partition, p, g) for p in parts}  # each partition searched on its own
    assert list(alone.values()) == ["gives up"] * 5 + [MatchValue.FULL] * 5 + ["gives up"]
    searched, enumerated = _counting(monkeypatch)
    rng = random.Random(43)
    faulted = set()
    for _ in range(20):
        rng.shuffle(parts)
        group, memo = matching._Grader(tuple(parts)), {}
        del searched[:], enumerated[:]
        first = next(i for i, p in enumerate(parts) if alone[id(p)] == "gives up")
        with pytest.raises(SearchLimitError, match="after 5 steps"):
            matching.match_group(group, g, memo)
        assert memo[-id(coarser)] is matching._TOO_MANY and enumerated == [coarser]
        # each member before it searched once, FULL; the one that no artifact satisfies gives up in its coarser's search
        assert [memo[id(p)] for p in parts[:first]] == [alone[id(p)] for p in parts[:first]]
        assert searched == parts[: first + 1] + ([coarser] if parts[first] is none_held else [])
        faulted.add((first > 0, parts[first] is none_held))
    assert faulted == {(False, False), (True, False), (False, True), (True, True)}


def test_an_enumeration_in_the_coarsers_plan_can_decide_where_a_partitions_own_search_gives_up(monkeypatch):
    """A partition graded against its coarser's embeddings runs no search of its own.

    In :func:`conftest.coarser_plan_case`, `later`'s own plan takes 4 steps
    and its coarser's 1. So at a budget of 3, `later` alone gives up, but in
    a group it is graded, whichever of the group comes first.
    """
    g, first, later = coarser_plan_case()
    assert first.coarser[0] is later.coarser[0]
    assert later.plan[0].vertex.ref == "c" and later.coarser[0].plan[0].vertex.ref == "a"
    monkeypatch.setattr(matching, "MAX_SEARCH_STEPS", 3)
    with pytest.raises(SearchLimitError, match="after 3 steps"):
        match_partition(later, g)  # alone, searched in its own plan
    for group in ((first, later), (later, first)):
        memo = {}
        assert _graded_values(group, g, memo) == [MatchValue.TYPES] * 2
    assert reference_match_partition(later, g) is MatchValue.TYPES


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


@pytest.mark.parametrize("order, steps", [(("a", "b"), 3), (("b", "a"), 5)])
def test_near_the_step_budget_the_graphs_listing_order_decides_which_input_gives_up(order, steps, monkeypatch):
    """Process "run" used artifacts a and b, and a was derived from b: one embedding of the pattern.

    The pattern's plan places the process, then x, then y, whose candidates
    are run's used artifacts in the order the graph lists its edges. Listed
    a first, x = a and y = b hold in 3 steps; listed b first, x = b fails
    its check with y = a, and the search takes 5. So at a budget of 3 or 4
    only the second listing gives up. A value never differs: both are FULL
    within their budgets.
    """
    g = ProvenanceGraph()
    run = g.add_vertex(VertexType.PROCESS, "run")
    made = {name: g.add_vertex(VertexType.ARTIFACT, name) for name in ("a", "b")}
    g.add_edge(made["a"], made["b"], EdgeLabel.WAS_DERIVED_FROM)
    for name in order:
        g.add_edge(run, made[name], EdgeLabel.USED)
    part = ProvenancePartition(
        (
            PatternVertex("p", VertexType.PROCESS, "run"),
            PatternVertex("x", VertexType.ARTIFACT),
            PatternVertex("y", VertexType.ARTIFACT),
        ),
        (
            PatternEdge("p", "x", EdgeLabel.USED),
            PatternEdge("p", "y", EdgeLabel.USED),
            PatternEdge("x", "y", EdgeLabel.WAS_DERIVED_FROM),
        ),
    )
    for budget in range(1, 6):
        monkeypatch.setattr(matching, "MAX_SEARCH_STEPS", budget)
        if budget < steps:
            with pytest.raises(SearchLimitError, match=f"after {budget} steps"):
                match_partition(part, g)
        else:
            assert match_partition(part, g) is MatchValue.FULL


def test_a_cycle_pattern_over_a_complete_dag_raises_instead_of_running_on():
    graph = graph_from_dict(complete_dag_doc(32))
    cycle = condition_from_dict({"partition": cycle_partition_doc(8)})
    with pytest.raises(SearchLimitError):
        match_partition(cycle, graph)


# -- pattern fields given as text --------------------------------------------------

def test_pattern_types_and_labels_given_as_text_are_stored_as_members():
    vertex, edge = PatternVertex("a", "Artifact"), PatternEdge("a", "p", "wasGeneratedBy")
    assert vertex.vtype is VertexType.ARTIFACT and vertex == PatternVertex("a", VertexType.ARTIFACT)
    assert (edge.label, edge.text) == (EdgeLabel.WAS_GENERATED_BY, "wasGeneratedBy")
    assert PatternEdge("a", "p").text is None
    assert PatternVertex("a", "artifact") == vertex  # type texts are case-insensitive, as in every document
    with pytest.raises(InputFormatError, match="^unknown vertex type 'artefact'$"):
        PatternVertex("a", "artefact")
    with pytest.raises(InputFormatError, match="^unknown edge label 'generated'$"):
        PatternEdge("a", "p", "generated")


@pytest.mark.parametrize("text_first", [False, True])
@pytest.mark.parametrize("n, expected", [(1, MatchValue.NAMES), (9, MatchValue.FULL)])
def test_a_text_typed_pattern_and_its_decoded_equal_read_alike_in_either_build_order(text_first, n, expected):
    """Equal patterns are one interned object, so a text-typed one must not become the table's object."""
    process = f"Insert {n} {text_first}"  # a name of this case alone, so no earlier test's pattern is interned
    g = ProvenanceGraph()
    art = g.add_vertex(VertexType.ARTIFACT, "report", {"n": n})
    g.add_edge(art, g.add_vertex(VertexType.PROCESS, process), EdgeLabel.WAS_GENERATED_BY)

    def decoded():
        return condition_from_dict({"partition": {
            "vertices": [
                {"ref": "a", "type": "artifact", "attrs": [["n", ">", 5]]},
                {"ref": "p", "type": "process", "name": process},
            ],
            "edges": [["a", "p", "wasGeneratedBy"]],
        }})

    def text_typed():
        partition = ProvenancePartition(
            (
                PatternVertex("a", "Artifact", None, (AttrConstraint("n", Predicate.GT, 5),)),
                PatternVertex("p", "Process", process),
            ),
            (PatternEdge("a", "p", EdgeLabel.WAS_GENERATED_BY),),
        )
        partition.coarser  # builds and interns the coarser partition
        return partition

    first, second = (text_typed, decoded) if text_first else (decoded, text_typed)
    patterns = first(), second()
    assert [match_partition(p, g) for p in patterns] == [expected, expected]
