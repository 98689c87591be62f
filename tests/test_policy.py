"""Policies: access trees, guards, evaluation, document loading."""

import random

import pytest

from provpurpose import (
    ConfigurationError,
    InputFormatError,
    MatchValue,
    NullCondition,
    PathPattern,
    Policy,
    PurposeGraph,
    Request,
    TreeBranch,
    TreeLeaf,
    TreeOp,
    VertexCondition,
    VertexType,
    category_covered,
    eval_access_tree,
    evaluate_policy,
    guards_pass,
    policy_from_dict,
    request_from_dict,
    role_leq,
    role_order_from_dict,
)
from provpurpose.algebra import MAX_NESTING
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


def test_category_substring_subsumption():
    assert category_covered("assignment", "assignments")
    assert category_covered("assignments", "assignments")
    assert not category_covered("assignments", "assignment")


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


def test_evaluate_policy_checks_purpose_membership(tiny_graph):
    pg = PurposeGraph(["a"], [])
    policy = Policy("p", 1, _leaf("alice"), ap=frozenset({"ghost"}))
    with pytest.raises(ConfigurationError):
        evaluate_policy(policy, tiny_graph, Request("anyone"), purpose_graph=pg)


def test_unknown_policy_purpose_error_names_the_smallest(tiny_graph):
    pg = PurposeGraph(["a"], [])
    ghosts = frozenset({"ghost3", "ghost2", "ghost1"})
    policy = Policy("p", 1, _leaf("alice"), ap=ghosts | {"a"})
    with pytest.raises(ConfigurationError, match="'ghost1'"):
        evaluate_policy(policy, tiny_graph, Request("anyone"), purpose_graph=pg)


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
