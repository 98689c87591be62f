"""Policies: access trees, guards, evaluation, document loading."""

import copy
import gc
import json
import random
import re
import sys
import weakref
from dataclasses import FrozenInstanceError, fields
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from provpurpose import (
    AttrCondition,
    ConfigurationError,
    InputFormatError,
    MatchValue,
    NullCondition,
    PartyConfig,
    PathPattern,
    Policy,
    Predicate,
    ProvenanceGraph,
    PurposeGraph,
    Request,
    TreeBranch,
    TreeLeaf,
    TreeOp,
    VertexCondition,
    VertexType,
    category_covered,
    condition_from_dict,
    eval_access_tree,
    eval_atomic,
    evaluate_policy,
    guards_pass,
    load_policy,
    policy,
    policy_from_dict,
    request_from_dict,
    role_leq,
    role_order_from_dict,
)
from provpurpose._dagutil import reachable_from, topological_order
from provpurpose.algebra import MAX_NESTING
from provpurpose.matching import match_and, match_or
from provpurpose.policy import PolicyDecision
from conftest import load_case_study_json
from oracles import oracle_fold_tree


def _leaf(name: str) -> TreeLeaf:
    return TreeLeaf(VertexCondition(VertexType.AGENT, name))


def test_tree_and_takes_worst(tiny_graph):
    tree = TreeBranch(TreeOp.AND, (_leaf("alice"), _leaf("bob")))
    assert eval_access_tree(tree, tiny_graph) is MatchValue.TYPES


def test_tree_or_takes_best(tiny_graph):
    tree = TreeBranch(TreeOp.OR, (_leaf("alice"), _leaf("bob")))
    assert eval_access_tree(tree, tiny_graph) is MatchValue.FULL


def test_tree_nests(tiny_graph):
    tree = TreeBranch(
        TreeOp.OR,
        (
            TreeBranch(TreeOp.AND, (_leaf("alice"), _leaf("bob"))),
            TreeLeaf(NullCondition()),
        ),
    )
    assert eval_access_tree(tree, tiny_graph) is MatchValue.FULL


def test_empty_branch_rejected():
    with pytest.raises(InputFormatError):
        TreeBranch(TreeOp.AND, ())


def test_a_branch_built_with_operator_text_holds_the_operator_as_the_loader_does(tiny_graph):
    """``"AND"`` is read as :attr:`TreeOp.AND`, folded by its leaves and by a compiled program alike."""
    flat = TreeBranch("AND", (_leaf("alice"), _leaf("bob")))
    assert flat.op is TreeOp.AND and flat == TreeBranch(TreeOp.AND, flat.children)
    nested = TreeBranch("OR", (flat, TreeLeaf(NullCondition())))
    assert nested.op is TreeOp.OR
    assert eval_access_tree(flat, tiny_graph) is MatchValue.TYPES
    assert eval_access_tree(TreeBranch("AND", (flat, _leaf("alice"))), tiny_graph) is MatchValue.TYPES
    assert eval_access_tree(nested, tiny_graph) is MatchValue.FULL


def test_an_unknown_branch_operator_is_an_input_error():
    with pytest.raises(InputFormatError, match="unknown tree operator 'FOO'"):
        TreeBranch("FOO", (_leaf("alice"), _leaf("bob")))


@pytest.mark.parametrize("condition", ["abc", None, TreeLeaf(NullCondition())])
def test_a_leaf_that_holds_no_leaf_condition_is_an_input_error(condition):
    with pytest.raises(InputFormatError, match="is not a leaf condition"):
        TreeLeaf(condition)


@pytest.mark.parametrize("child", [NullCondition(), "alice", None])
def test_a_branch_child_that_is_no_access_tree_is_an_input_error(child):
    with pytest.raises(InputFormatError, match="are not all access trees"):
        TreeBranch(TreeOp.OR, (_leaf("alice"), child))


@pytest.mark.parametrize("tree", [NullCondition(), "alice", None])
def test_a_policy_whose_tree_is_no_access_tree_is_an_input_error(tree):
    with pytest.raises(InputFormatError, match="is not an access tree"):
        Policy("p", 1, tree, ap=frozenset({"a"}))


def test_tree_matches_naive_fold_on_random_trees(tiny_graph):
    leaf_conditions = [
        VertexCondition(VertexType.AGENT, "alice"),   # full
        VertexCondition(VertexType.AGENT, "bob"),     # types-only
        VertexCondition(VertexType.ATTRIBUTE, "x"),   # attribute vertices exist here
        NullCondition(),                              # full
    ]
    from provpurpose import eval_atomic

    leaf_values = [eval_atomic(c, tiny_graph) for c in leaf_conditions]
    rng = random.Random(23)

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            i = rng.randrange(len(leaf_conditions))
            return TreeLeaf(leaf_conditions[i]), ("leaf", i)
        op = rng.choice((TreeOp.AND, TreeOp.OR))
        pairs = [build(depth - 1) for _ in range(rng.randint(1, 3))]
        return (
            TreeBranch(op, tuple(t for t, _ in pairs)),
            (op.value, [s for _, s in pairs]),
        )

    for _ in range(60):
        tree, shape = build(3)
        assert eval_access_tree(tree, tiny_graph) == oracle_fold_tree(shape, leaf_values)


def _random_tree(rng, n_leaves, depth):
    """A random tree over leaf indices, and its shape for `oracle_fold_tree`."""
    if depth == 0 or rng.random() < 0.3:
        i = rng.randrange(n_leaves)
        return i, ("leaf", i)
    op = rng.choice((TreeOp.AND, TreeOp.OR))
    pairs = [_random_tree(rng, n_leaves, depth - 1) for _ in range(rng.randint(1, 4))]
    return (op, [t for t, _ in pairs]), (op.value, [s for _, s in pairs])


def test_compiled_trees_sharing_leaves_and_one_memo_match_the_oracle(tiny_graph, monkeypatch):
    conditions = [
        VertexCondition(VertexType.AGENT, "alice"),
        VertexCondition(VertexType.AGENT, "bob"),
        AttrCondition(VertexType.ARTIFACT, "report", "size", Predicate.GT, 10),  # names-only
        AttrCondition(VertexType.ARTIFACT, "report", "size", Predicate.LT, 10),
        VertexCondition(VertexType.ATTRIBUTE, "x"),
        NullCondition(),
    ]
    leaf_values = [eval_atomic(c, tiny_graph) for c in conditions]
    assert len(set(leaf_values)) == 3
    matched = []

    def counting(cond, graph, query_attrs=None, memo=None):
        matched.append(cond)
        return eval_atomic(cond, graph, query_attrs, memo)

    # leaves are matched through the module's global, looked up at call time
    monkeypatch.setattr(policy, "eval_atomic", counting)

    def build(spec):
        if isinstance(spec, int):
            return TreeLeaf(conditions[spec])
        op, children = spec
        return TreeBranch(op, tuple(build(c) for c in children))

    rng = random.Random(29)
    memo = {}
    for _ in range(200):
        spec, shape = _random_tree(rng, len(conditions), 4)
        tree = build(spec)
        assert eval_access_tree(tree, tiny_graph, memo=memo) == oracle_fold_tree(shape, leaf_values)
        assert eval_access_tree(tree, tiny_graph) == oracle_fold_tree(shape, leaf_values)
    assert sorted(map(id, matched[: len(conditions)])) == sorted(map(id, conditions))
    # the memo also holds each leaf's partition and the coarser partition of each leaf that fell below FULL
    partitions = [c.partition for c in conditions[:-1]]
    coarser = [c.partition.coarser[0] for c, v in zip(conditions, leaf_values) if v < MatchValue.FULL]
    assert memo.keys() == set(map(id, conditions + partitions + coarser))
    assert len(memo) == len(conditions) + len(partitions) + 3


def test_compiled_program_is_post_order_and_kept_out_of_equality(tiny_graph):
    a, b, c = (VertexCondition(VertexType.AGENT, n) for n in ("a", "b", "c"))
    inner = TreeBranch(TreeOp.OR, (TreeLeaf(b), TreeLeaf(c)))
    tree = TreeBranch(TreeOp.AND, (TreeLeaf(a), inner))
    twin = TreeBranch(TreeOp.AND, (TreeLeaf(a), TreeBranch(TreeOp.OR, (TreeLeaf(b), TreeLeaf(c)))))
    eval_access_tree(tree, tiny_graph)
    assert tree.program == (a, b, c, (2, match_or), (2, match_and))
    assert "program" not in vars(inner)  # only the tree evaluated whole is compiled
    assert tree == twin and hash(tree) == hash(twin) and repr(tree) == repr(twin)


def _node_count(tree):
    return 1 if isinstance(tree, TreeLeaf) else 1 + sum(map(_node_count, tree.children))


def _recursive_program(tree):
    if isinstance(tree, TreeLeaf):
        return (tree.condition,)
    fold = match_and if tree.op is TreeOp.AND else match_or
    return (*(step for child in tree.children for step in _recursive_program(child)), (len(tree.children), fold))


_trees = st.recursive(
    st.sampled_from(["a", "b", "c"]).map(lambda n: TreeLeaf(VertexCondition(VertexType.AGENT, n))),
    lambda children: st.builds(
        TreeBranch, st.sampled_from(list(TreeOp)), st.lists(children, min_size=1, max_size=4).map(tuple)
    ),
    max_leaves=24,
).filter(lambda tree: isinstance(tree, TreeBranch))


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_a_compiled_tree_has_one_step_per_node_in_recursive_post_order(tree):
    assert len(tree.program) == _node_count(tree)
    assert tree.program == _recursive_program(tree)


def test_wide_and_deep_trees_evaluate_without_recursion(tiny_graph):
    full = TreeLeaf(VertexCondition(VertexType.AGENT, "alice"))
    types = TreeLeaf(VertexCondition(VertexType.AGENT, "bob"))
    wide = TreeBranch(TreeOp.OR, (types,) * 4_999 + (full,))
    deep, expected = TreeBranch(TreeOp.AND, (full,)), MatchValue.FULL
    for level in range(MAX_NESTING - 1):  # alternately AND types-only, OR full
        if level % 2:
            deep, expected = TreeBranch(TreeOp.OR, (deep, full)), MatchValue.FULL
        else:
            deep, expected = TreeBranch(TreeOp.AND, (deep, types)), MatchValue.TYPES
    assert deep.depth == MAX_NESTING
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)  # far fewer frames than the tree has levels
    try:
        assert eval_access_tree(wide, tiny_graph) is MatchValue.FULL
        assert eval_access_tree(deep, tiny_graph) is expected
    finally:
        sys.setrecursionlimit(limit)


# -- policy shapes ------------------------------------------------------------------

def test_policy_type_constraints():
    tree = TreeLeaf(NullCondition())
    with pytest.raises(InputFormatError):
        Policy("p", 1, tree, pp=frozenset({"x"}))
    with pytest.raises(InputFormatError):
        Policy("p", 2, tree, ap=frozenset({"x"}))
    with pytest.raises(InputFormatError):
        Policy("p", 3, tree, subjects=frozenset({"s"}))
    with pytest.raises(InputFormatError):
        Policy("p", 4, tree)
    with pytest.raises(InputFormatError):
        Policy("p", 9, tree)


# -- guards ---------------------------------------------------------------------------

def test_role_leq_reflexive_and_transitive():
    order = {"student": frozenset({"students"}), "students": frozenset({"people"})}
    assert role_leq("student", "student")
    assert role_leq("student", "students", order)
    assert role_leq("student", "people", order)
    assert not role_leq("students", "student", order)
    assert not role_leq("student", "staff", order)
    assert not role_leq("student", "students", None)


def test_role_leq_and_guards_pass_read_a_role_order_as_its_loader_does():
    """A string of seniors is refused in the loader's words, not read as its characters."""
    pol = Policy("p", 4, TreeLeaf(NullCondition()), subjects=frozenset({"a"}))
    for order, message in (
        ({"clerk": "admin"}, "senior roles of 'clerk' must be an array"),
        ({"clerk": ["admin", 1]}, "senior roles of 'clerk' must be an array of strings"),
        (["clerk"], "role order document must be an object"),
    ):
        for read in (lambda: role_leq("clerk", "a", order), lambda: guards_pass(pol, Request("clerk"), None, order)):
            with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
                read()
        with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
            role_order_from_dict(order)
    # only the entries the walk meets are read
    assert role_leq("clerk", "admin", {"clerk": ["admin"], "guest": "root"})


def test_category_substring_subsumption():
    assert category_covered("assignment", "assignments")
    assert category_covered("assignments", "assignments")
    assert not category_covered("assignments", "assignment")
    assert not category_covered("", "assignments")  # "" occurs in every string, yet names no category


def test_guards_pass_matrix():
    tree = TreeLeaf(NullCondition())
    policy = Policy(
        "p", 4, tree,
        ap=frozenset({"education"}),
        subjects=frozenset({"students"}),
        categories=frozenset({"assignments"}),
    )
    order = {"student": frozenset({"students"})}
    assert guards_pass(policy, Request("student"), "assignment", order)
    assert not guards_pass(policy, Request("professor"), "assignment", order)
    assert not guards_pass(policy, Request("student"), "exams", order)
    assert not guards_pass(policy, Request("student"), None, order)
    assert not guards_pass(policy, Request("student"), "", order)


def test_guardless_policy_always_passes_guards(tiny_graph):
    policy = Policy("p", 3, TreeLeaf(NullCondition()), ap=frozenset({"x"}), pp=frozenset({"y"}))
    assert guards_pass(policy, Request("anyone"), None)


# -- evaluation -------------------------------------------------------------------------

def test_evaluate_policy_releases_on_full_match(tiny_graph):
    policy = Policy("p", 3, _leaf("alice"), ap=frozenset({"x"}), pp=frozenset({"y"}))
    d = evaluate_policy(policy, tiny_graph, Request("anyone"))
    assert d.applicable and d.ap == {"x"} and d.pp == {"y"}
    assert d.tree_value is MatchValue.FULL and d.guards_ok


def test_evaluate_policy_partial_match_releases_nothing(tiny_graph):
    policy = Policy("p", 3, _leaf("bob"), ap=frozenset({"x"}))
    d = evaluate_policy(policy, tiny_graph, Request("anyone"))
    assert not d.applicable and d.ap == frozenset() and d.pp == frozenset()
    assert d.tree_value is MatchValue.TYPES and d.guards_ok


def test_evaluate_policy_failed_guard_blocks(tiny_graph):
    policy = Policy(
        "p", 4, _leaf("alice"), ap=frozenset({"x"}), subjects=frozenset({"admins"})
    )
    d = evaluate_policy(policy, tiny_graph, Request("caller"))
    assert not d.applicable and not d.guards_ok
    assert d.tree_value is MatchValue.FULL  # the tree itself still matched


def test_unknown_policy_purpose_error_names_the_smallest():
    pg = PurposeGraph(["a"], [])
    ghosts = frozenset({"ghost3", "ghost2", "ghost1"})
    policy = Policy("p", 1, _leaf("alice"), ap=ghosts | {"a"})
    with pytest.raises(ConfigurationError, match="^policy 'p' uses purpose 'ghost1' not in the purpose graph$"):
        PartyConfig("owner", (policy,)).masks(pg)


@pytest.mark.parametrize("guards_ok", [False, True])
@pytest.mark.parametrize("value", list(MatchValue))
def test_shared_decisions_equal_the_decisions_built_per_call(tiny_graph, value, guards_ok):
    cond = VertexCondition(VertexType.AGENT, "alice")
    pol = Policy("p", 4, TreeLeaf(cond), ap=frozenset({"x"}), pp=frozenset({"y"}), subjects=frozenset({"s"}))
    request = Request("s" if guards_ok else "t")
    decision = evaluate_policy(pol, tiny_graph, request, memo={id(cond): value})
    # what evaluate_policy built for every policy of every decision before decisions were shared
    if guards_ok and value is MatchValue.FULL:
        built = PolicyDecision(True, pol.ap, pol.pp, value, guards_ok)
    else:
        built = PolicyDecision(False, frozenset(), frozenset(), value, guards_ok)
    for f in fields(PolicyDecision):
        got, want = getattr(decision, f.name), getattr(built, f.name)
        assert type(got) is type(want) and got == want, f.name
    assert evaluate_policy(pol, tiny_graph, request, memo={id(cond): value}) is decision


def test_an_applicable_decision_carries_its_policys_own_sets(tiny_graph):
    first = Policy("p", 3, _leaf("alice"), ap=frozenset({"x"}), pp=frozenset({"y"}))
    second = Policy("q", 1, _leaf("alice"), ap=frozenset({"z"}))
    d1, d2 = (evaluate_policy(p, tiny_graph, Request("anyone")) for p in (first, second))
    assert d1.applicable and d1.ap is first.ap and d1.pp is first.pp
    assert d2.applicable and d2.ap is second.ap and d2.pp is second.pp
    with pytest.raises(FrozenInstanceError):
        d1.ap = frozenset()  # type: ignore[misc]


def test_subject_guard_equals_a_role_leq_per_subject_on_random_orders():
    roles = [f"r{i}" for i in range(7)]
    rng = random.Random(31)
    cyclic = 0
    for _ in range(300):
        # any edge between distinct roles may appear, so orders may have cycles
        order = {
            junior: frozenset(rng.sample([r for r in roles if r != junior], rng.randint(0, 3)))
            for junior in rng.sample(roles, rng.randint(0, len(roles)))
        }
        cyclic += topological_order(roles, order) is None
        subjects = frozenset(rng.sample(roles, rng.randint(0, 3)))
        pol = Policy("p", 4, TreeLeaf(NullCondition()), subjects=subjects)
        for requester in roles:
            for role_order in (order, None):
                expected = any(role_leq(requester, s, role_order) for s in subjects)
                assert guards_pass(pol, Request(requester), None, role_order) == expected
                # the walk a caller made once, handed down as decide hands it to every policy
                reach = reachable_from(requester, role_order or {})
                assert guards_pass(pol, Request(requester), None, role_order, reach) == expected
    assert 0 < cyclic < 300


# -- documents ---------------------------------------------------------------------------

def test_policy_from_dict_infers_shape():
    doc = {
        "provenance_partitions": {"only": {"null": None}},
        "AP": ["education"],
    }
    policy = policy_from_dict(doc, default_id="fallback")
    assert policy.id == "fallback"
    assert policy.ptype == 1
    assert isinstance(policy.tree, TreeLeaf)
    assert policy.ap == {"education"} and policy.pp == frozenset()
    # without "type", prohibiting alone makes type 2, and granting and prohibiting type 3
    for sides, ptype in (({"PP": ["marketing"]}, 2), ({"AP": ["education"], "PP": ["marketing"]}, 3)):
        assert policy_from_dict({"provenance_partitions": {"only": {"null": None}}, **sides}).ptype == ptype


def test_policy_from_dict_with_tree_and_guards():
    doc = {
        "id": "pol",
        "subject": ["students"],
        "category": ["assignments"],
        "provenance_partitions": {
            "a": {"vertex": ["agent", "alice"]},
            "b": {"path": "used|x, wasGeneratedBy|y"},
        },
        "access_tree": {"AND": ["a", {"OR": ["b", "a"]}]},
        "AP": ["education"],
        "PP": ["marketing"],
    }
    policy = policy_from_dict(doc)
    assert policy.ptype == 4
    assert policy.subjects == {"students"}
    branch = policy.tree
    assert isinstance(branch, TreeBranch) and branch.op is TreeOp.AND
    assert isinstance(branch.children[1], TreeBranch)


def test_policy_from_dict_errors():
    with pytest.raises(InputFormatError):
        policy_from_dict({"provenance_partitions": {}})  # no tree, no sole partition
    with pytest.raises(InputFormatError):
        policy_from_dict(
            {"provenance_partitions": {"a": {"null": None}}, "access_tree": "ghost"}
        )
    with pytest.raises(InputFormatError):
        policy_from_dict(
            {"provenance_partitions": {"a": {"mystery": 1}}, "access_tree": "a"}
        )
    with pytest.raises(InputFormatError):
        policy_from_dict({"provenance_partitions": {"a": {"null": None}}, "subject": "solo"})
    two_ops = {"AND": ["a"], "OR": ["a"]}
    message = f"access tree node {two_ops!r} must have exactly one operator"
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        policy_from_dict({"provenance_partitions": {"a": {"null": None}}, "access_tree": two_ops})


@pytest.mark.parametrize("doc", [{}, {"null": None, "vertex": ["agent", "alice"]}])
def test_a_condition_needs_exactly_one_kind_key(doc):
    message = f"condition {doc!r} must have exactly one kind key"
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        condition_from_dict(doc)
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        policy_from_dict({"provenance_partitions": {"a": doc}, "access_tree": "a"})


def test_condition_documents_cover_all_kinds(tiny_graph):
    from provpurpose import condition_from_dict, eval_atomic, ProvenancePartition

    cases = {
        "null": None,
        "vertex": ["agent", "alice"],
        "attr": ["artifact", "report", "size", "=", 4],
        "query": ["artifact", "report", "size", "<="],
        "target": '/artifact[name="report"]',
        "path": "wasGeneratedBy|ingest",
        "partition": {
            "vertices": [{"ref": "v", "type": "process", "name": "ingest"}],
            "edges": [],
        },
    }
    for kind, value in cases.items():
        cond = condition_from_dict({kind: value})
        if isinstance(cond, PathPattern):
            continue
        if isinstance(cond, ProvenancePartition):
            from provpurpose import match_partition

            assert match_partition(cond, tiny_graph) is MatchValue.FULL
        elif kind != "query":
            assert eval_atomic(cond, tiny_graph) is MatchValue.FULL


# -- interning and the leaf memo ------------------------------------------------------

_CONDITION_DOCS = {
    "null": None,
    "vertex": ["agent", "alice"],
    "attr": ["artifact", "report", "size", "=", 4],
    "query": ["artifact", "report", "size", "<="],
    "target": '/artifact[name="report"]/process',
    "path": "wasGeneratedBy|ingest, \\v*, wasControlledBy|alice",
    "partition": {
        "vertices": [
            {"ref": "r", "type": "artifact", "name": "report", "attrs": [["size", ">", 1]]},
            {"ref": "p", "type": "process"},
        ],
        "edges": [["r", "p", "wasGeneratedBy"]],
    },
}


def _sole_condition(pol: Policy):
    assert isinstance(pol.tree, TreeLeaf)
    return pol.tree.condition


@pytest.mark.parametrize("kind", list(_CONDITION_DOCS))
def test_equal_conditions_decode_to_one_object(kind, tmp_path):
    doc = {"provenance_partitions": {"c": {kind: _CONDITION_DOCS[kind]}}, "AP": ["education"]}
    first = _sole_condition(policy_from_dict(doc))
    assert _sole_condition(policy_from_dict(copy.deepcopy(doc))) is first
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(json.dumps(doc))
    a, b = (load_policy(str(path)) for path in paths)
    assert _sole_condition(a) is _sole_condition(b) is first


def _partition_doc(ref="r", pred=">", label="wasGeneratedBy", operand=1):
    return {"partition": {
        "vertices": [
            {"ref": ref, "type": "artifact", "name": "report", "attrs": [["size", pred, operand]]},
            {"ref": "p", "type": "process"},
        ],
        "edges": [[ref, "p", label]],
    }}


@pytest.mark.parametrize(
    "change", [{"ref": "s"}, {"pred": ">="}, {"label": "used"}, {"label": "*"}, {"operand": "1"}]
)
def test_conditions_that_differ_decode_to_different_objects(change):
    base = condition_from_dict(_partition_doc())
    assert condition_from_dict(_partition_doc(**change)) is not base


def test_int_and_string_operands_decode_to_different_objects():
    as_int, as_str = (condition_from_dict({"attr": ["artifact", "report", "size", "=", v]}) for v in (1, "1"))
    assert as_int is not as_str
    assert (as_int.operand, as_str.operand) == (1, "1")


def test_equal_instants_in_different_offsets_intern_to_one_object():
    utc, plus_one = (
        condition_from_dict({"attr": ["artifact", "report", "at", "<", {"timestamp": stamp}]})
        for stamp in ("2021-01-01T00:00:00+00:00", "2021-01-01T01:00:00+01:00")
    )
    assert utc is plus_one
    built = AttrCondition(
        VertexType.ARTIFACT, "report", "at", Predicate.LT,
        datetime(2021, 1, 1, 1, tzinfo=timezone(timedelta(hours=1))),
    )
    values = []
    for minutes in (-1, 0, 1):  # around 2021-01-01T00:00Z
        graph = ProvenanceGraph()
        at = datetime(2020, 12, 31, 19, tzinfo=timezone(timedelta(hours=-5))) + timedelta(minutes=minutes)
        graph.add_vertex(VertexType.ARTIFACT, "report", {"at": at})
        values.append((eval_atomic(utc, graph), eval_atomic(built, graph)))
    assert values == [(MatchValue.FULL,) * 2, (MatchValue.NAMES,) * 2, (MatchValue.NAMES,) * 2]


def test_interning_keeps_no_condition_alive():
    ref = weakref.ref(condition_from_dict({"vertex": ["agent", "held by nothing else"]}))
    gc.collect()
    assert ref() is None
    # nor a partition derived from one: a leaf's coarser partition, a vertex condition's partition
    leaf = condition_from_dict(_partition_doc(ref="held by nothing else"))
    cond = condition_from_dict({"vertex": ["agent", "also held by nothing else"]})
    refs = [weakref.ref(obj) for obj in (leaf, leaf.coarser[0], cond, cond.partition)]
    del leaf, cond
    gc.collect()
    assert [r() for r in refs] == [None] * 4


def test_each_leaf_object_is_evaluated_once_per_call(tiny_graph, monkeypatch):
    calls = []
    match_partition = policy.match_partition

    def counting_match_partition(partition, graph, memo=None):
        calls.append(partition)
        return match_partition(partition, graph, memo)

    monkeypatch.setattr(policy, "match_partition", counting_match_partition)
    leaf = TreeLeaf(condition_from_dict(_partition_doc()))
    tree = TreeBranch(TreeOp.AND, (leaf, TreeBranch(TreeOp.OR, (leaf, TreeLeaf(leaf.condition)))))
    assert eval_access_tree(tree, tiny_graph) is MatchValue.FULL
    assert eval_access_tree(tree, tiny_graph) is MatchValue.FULL
    assert calls == [leaf.condition] * 2  # once per call: a call without a memo gets its own
    memo = {}
    for _ in range(2):
        evaluate_policy(Policy("p", 1, tree, ap=frozenset({"x"})), tiny_graph, Request("s"), memo=memo)
    assert len(calls) == 3


def test_request_from_dict_with_attached_purposes():
    request, attached = request_from_dict(
        {"subject": "student", "category": "assignment", "attached_purposes": ["education"]}
    )
    assert request.subject == "student"
    assert request.category == "assignment"
    assert attached == {"education"}

    request, attached = request_from_dict({"subject": "x"})
    assert attached is None and request.category is None

    with pytest.raises(InputFormatError):
        request_from_dict({})


def test_role_order_document():
    order = role_order_from_dict({"student": ["students", "people"]})
    assert order["student"] == {"students", "people"}
    with pytest.raises(InputFormatError):
        role_order_from_dict({"student": "students"})


def test_case_study_policy_files_load():
    source = policy_from_dict(load_case_study_json("source_policy.json"))
    assert source.ptype == 4
    assert source.ap == {"education", "research"}
    assert source.pp == {"access investigation"}
    repo = policy_from_dict(load_case_study_json("repository_policy.json"))
    assert repo.ptype == 3
    assert repo.categories is None


def _nested_policy(levels: int) -> dict:
    tree = "p"
    for i in range(levels):
        tree = {"AND" if i % 2 else "OR": [tree]}
    partitions = {"p": {"vertex": ["Agent", "alice"]}}
    return {"provenance_partitions": partitions, "access_tree": tree, "AP": ["x"]}


def test_tree_at_the_nesting_limit_decodes_and_evaluates(tiny_graph):
    pol = policy_from_dict(_nested_policy(MAX_NESTING))
    decision = evaluate_policy(pol, tiny_graph, Request("anyone"))
    assert decision.applicable and decision.ap == {"x"}


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 3000])
def test_tree_beyond_the_nesting_limit_is_an_input_error(levels):
    with pytest.raises(InputFormatError, match=f"deeper than {MAX_NESTING} levels"):
        policy_from_dict(_nested_policy(levels))


def _chain(levels: int):
    tree = TreeLeaf(NullCondition())
    for i in range(levels):
        tree = TreeBranch(TreeOp.AND if i % 2 else TreeOp.OR, (tree,))
    return tree


def test_built_tree_at_the_nesting_limit_evaluates(tiny_graph):
    tree = _chain(MAX_NESTING)
    assert tree.depth == MAX_NESTING
    assert eval_access_tree(tree, tiny_graph) is MatchValue.FULL


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 3000])
def test_built_tree_beyond_the_nesting_limit_is_an_input_error(levels):
    with pytest.raises(InputFormatError, match=f"deeper than {MAX_NESTING} levels"):
        _chain(levels)
