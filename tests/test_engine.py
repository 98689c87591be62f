"""The four-stage decision pipeline."""

import gc
import json
import pickle
import random
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from provpurpose import (
    AttrCondition,
    AttrConstraint,
    ConfigurationError,
    DataRecord,
    EdgeLabel,
    FidaSyntaxError,
    FunctionCall,
    HierarchicalPurposeSet,
    InputFormatError,
    MatchValue,
    MissingHierarchyLineError,
    NullCondition,
    PartyConfig,
    PartyResult,
    PatternEdge,
    PatternVertex,
    Policy,
    Predicate,
    ProvenanceGraph,
    ProvenancePartition,
    PurposeBits,
    PurposeGraph,
    QueryCondition,
    Request,
    SearchLimitError,
    SetRef,
    StageError,
    TreeBranch,
    TreeLeaf,
    TreeOp,
    UnboundNameError,
    UnknownPurposeError,
    VertexCondition,
    VertexType,
    decide,
    default_internal_expr,
    engine,
    eval_access_tree,
    eval_fida,
    eval_fida_plain,
    evaluate_policy,
    load_policy,
    load_request,
    load_role_order,
    merge_parties,
    outcome_to_dict,
    policy,
    policy_from_dict,
    print_fida,
    role_order_from_dict,
    split_result,
)
from provpurpose import external as external_module, matching
from provpurpose.algebra import MAX_NESTING
from provpurpose.external import _party_program
from provpurpose.purposes import _BoundedMap
from conftest import CASE_STUDY, coarser_plan_case, party_groups
from oracles import oracle_decide
from randcases import (
    _RANKED_EXTERNAL_FUNCTIONS,
    _random_expr_tree,
    random_decision_case,
    random_prohibiting_case,
    repeated_requests,
    shared_leaves,
    skeleton_family_case,
    with_shared_shapes,
)


def _null_policy(pid, ap=(), pp=(), ptype=None):
    ap, pp = frozenset(ap), frozenset(pp)
    if ptype is None:
        ptype = 3 if (ap and pp) else (2 if pp else 1)
    return Policy(pid, ptype, TreeLeaf(NullCondition()), ap=ap, pp=pp)


# small_pg's purposes and edges, for the oracle
_SMALL = ["root", "mid", "leafp"], [("root", "mid"), ("mid", "leafp")]


@pytest.fixture()
def small_pg():
    return PurposeGraph(*_SMALL, hierarchy_line=1)


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


def test_decisions_derive_every_expression_once(tiny_graph, small_pg, monkeypatch):
    from provpurpose import algebra, external

    calls = []
    for module in (engine, external, algebra):
        parse = module.parse_fida
        monkeypatch.setattr(module, "parse_fida", lambda text, parse=parse: calls.append(text) or parse(text))
    owner = PartyConfig("owner", (_null_policy("grant", ap={"mid"}), _null_policy("deny", pp={"mid"})), "grant - deny")
    other = PartyConfig("other", (_null_policy("p1", ap={"mid", "leafp"}), _null_policy("p2", ap={"mid"})))
    text = "F1(owner, other) & (other - owner)"
    programs, outcomes = [], []
    for _ in range(3):
        outcomes.append(outcome_to_dict(decide(DataRecord(tiny_graph), Request("s"), [owner, other], text, small_pg)))
        programs.append((owner.merge_program, other.merge_program))
    assert outcomes[0] == outcomes[1] == outcomes[2] and outcomes[0]["decided"] == ["leafp"]
    assert calls.count(text) <= 1 and calls.count("grant - deny") == 1
    assert all(a is programs[0][0] and b is programs[0][1] for a, b in programs)


def test_malformed_internal_expr_fails_on_every_call(tiny_graph, small_pg):
    # The empty text is parsed like any other, not taken for "no expression".
    for text in ("p1 +", "", "  "):
        cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid"}),), internal_expr=text)
        for _ in range(2):
            with pytest.raises(StageError) as err:
                decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
            assert err.value.stage == "internal-merge"


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("p1 + nobody", UnboundNameError, "no set bound to 'nobody'"),
        ("f_bogus(p1, p1)", UnboundNameError, "unknown merge function 'f_bogus'"),
        ("f_dotplus(p1)", FidaSyntaxError, "f_dotplus takes exactly two operands"),
    ],
)
def test_expression_that_raises_at_run_time_fails_internal_merge_on_every_call(tiny_graph, small_pg, text, error, message):
    """The expression parses, and its program raises when it runs: no result is stored, so it runs again."""
    record = DataRecord(tiny_graph)
    ghost = PartyConfig("owner", (_null_policy("p1", ap={"mid"}),), internal_expr=text)
    for _ in range(2):
        with pytest.raises(StageError) as err:
            decide(record, Request("s"), [ghost], "F3", small_pg)
        assert err.value.stage == "internal-merge"
        assert type(err.value.cause) is error and str(err.value.cause) == message
    assert ghost._plans[small_pg].merged == {}
    # The party's own policy errors come first.
    unknown = PartyConfig("owner", (_null_policy("p1", ap={"ghost"}),), internal_expr=text)
    with pytest.raises(StageError) as err:
        decide(record, Request("s"), [unknown], "F3", small_pg)
    assert err.value.stage == "policy-evaluation"


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


@pytest.mark.parametrize("given", [frozenset, set, list, tuple, lambda names: (n for n in names)])
def test_attached_purposes_of_any_iterable_decide_alike(given):
    """A list, tuple or one-shot iterator is read once into a frozenset, which the outcome keeps."""
    record, request, parties, pg, role_order = _case_study()
    named = sorted(record.attached_purposes | set(sorted(pg.purposes)[:2]))  # three known purposes

    def rendered(purposes):
        outcome = decide(replace(record, attached_purposes=purposes), request, parties, "F3", pg, role_order)
        assert type(outcome.attached_purposes) is frozenset and outcome.attached_purposes == set(named)
        return outcome.decided, json.dumps(outcome_to_dict(outcome))

    got = rendered(given(named))
    assert len(named) == 3 and got == rendered(frozenset(named)) and got[0] == {"education"}


_AB = PurposeGraph(["ab", "a", "b"], [], hierarchy_line=0)  # "ab" is one purpose, not the set {a, b}


def test_attached_purposes_given_as_a_string_fail_the_attached_stage():
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"ab", "a"}),))

    def decide_ab(attached):
        return decide(DataRecord(ProvenanceGraph(), None, attached), Request("s"), [cfg], "F3", _AB)

    assert decide_ab(["ab"]).decided == {"ab"}
    with pytest.raises(StageError) as err:
        decide_ab("ab")
    assert err.value.stage == "attached-purpose-intersection"
    assert str(err.value.cause) == "a purpose set must be a collection of purpose names, not the string 'ab'"


@pytest.mark.parametrize("side", ["ap", "pp"])
def test_a_policy_refuses_a_string_as_its_purposes(side):
    """A policy reads its purposes as its loader reads them: a string is no array of names."""
    message = f'^"{side.upper()}" must be an array$'
    with pytest.raises(InputFormatError, match=message):
        Policy("p1", 3, TreeLeaf(NullCondition()), **{side: "ab"})


@pytest.mark.parametrize("field, names", [("subjects", "subject"), ("categories", "category")])
def test_a_policy_refuses_a_string_as_its_guard(field, names):
    """A guard given as one string would be read as its letters, or fail a decision with a bare error."""
    message = f'^"{names}" must be an array$'
    with pytest.raises(InputFormatError, match=message):
        Policy("p1", 4, TreeLeaf(NullCondition()), **{field: "ab"})
    assert Policy("p1", 4, TreeLeaf(NullCondition()), **{field: frozenset({"ab"})})


@pytest.mark.parametrize("make", [PartyResult, HierarchicalPurposeSet])
def test_a_party_result_and_a_hierarchical_set_refuse_a_string_as_their_purposes(make):
    args = ("m",) if make is PartyResult else ()
    for side in ("ap", "pp"):
        with pytest.raises(InputFormatError, match=f'^"{side}" must be an array$'):
            make(*args, **{side: "ab"})
    assert make(*args, ap=["ab"], pp=iter(["a"])) == make(*args, ap=frozenset({"ab"}), pp=frozenset({"a"}))


def test_decide_reads_a_one_shot_iterable_of_parties_once(tiny_graph, small_pg):
    """The name check and the decision read one tuple of the parties, so a generator still runs every party."""
    parties = [PartyConfig("a", (_null_policy("p1", ap={"mid"}),)), PartyConfig("b", (_null_policy("p2", ap={"mid"}),))]
    once = decide(DataRecord(tiny_graph), Request("s"), (cfg for cfg in parties), "F3", small_pg)
    assert [trace.party for trace in once.parties] == ["a", "b"] and once.decided == {"mid"}
    assert outcome_to_dict(once) == outcome_to_dict(decide(DataRecord(tiny_graph), Request("s"), parties, "F3", small_pg))


@pytest.mark.parametrize("parties", [[5], ["owner"], [None], 5])
def test_decide_refuses_a_party_that_is_not_a_config(tiny_graph, small_pg, parties):
    """As an empty list is refused: a configuration error, before any stage runs, not a bare AttributeError."""
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid"}),))
    given = [cfg, *parties] if isinstance(parties, list) else parties
    with pytest.raises(ConfigurationError, match="^parties must be PartyConfig objects, got "):
        decide(DataRecord(tiny_graph), Request("s"), given, "F3", small_pg)
    assert not cfg._plans  # no party was evaluated


@pytest.mark.parametrize("expr", [5, None, ["F3"], b"F3"])
def test_decide_refuses_a_cross_party_expression_that_is_not_a_string(tiny_graph, small_pg, expr):
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid"}),))
    with pytest.raises(ConfigurationError, match="^the cross-party expression must be a string, got "):
        decide(DataRecord(tiny_graph), Request("s"), [cfg], expr, small_pg)
    assert not cfg._plans  # refused before any stage runs


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


@pytest.mark.parametrize(
    "ap, attached, stage, message",
    [
        # a policy refuses a purpose that is no name when it is built, as its loader does
        ({"a", 2, "q"}, None, None, '"AP" must be an array of strings'),
        ({"mid", 2, 1.5}, None, None, '"AP" must be an array of strings'),
        # and so does the attached-purpose check
        ({"mid"}, frozenset({1, "x"}), "attached-purpose-intersection", "unknown purpose 'x'"),
        ({"mid"}, frozenset({"mid", 1, None}), "attached-purpose-intersection", "unknown purpose None"),
    ],
)
def test_purpose_sets_of_mixed_types_fail_their_stage_naming_one_member(
    tiny_graph, small_pg, ap, attached, stage, message
):
    if stage is None:
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            _null_policy("p1", ap=ap)
        return
    cfg = PartyConfig("owner", (_null_policy("p1", ap=ap),))
    with pytest.raises(StageError) as err:
        decide(DataRecord(tiny_graph, attached_purposes=attached), Request("s"), [cfg], "F3", small_pg)
    assert err.value.stage == stage and str(err.value.cause) == message


@pytest.mark.parametrize("attached, named", [(["x", ["y"]], "'x'"), (["mid", ["y"]], "['y']")])
def test_an_unhashable_attached_purpose_fails_its_stage_naming_one_member(tiny_graph, small_pg, attached, named):
    """A list is no purpose: the check names it, or the least unknown name, with no bare TypeError."""
    cfg = PartyConfig("owner", (_null_policy("p1", ap={"mid"}),))
    with pytest.raises(StageError) as err:
        decide(DataRecord(tiny_graph, None, attached), Request("s"), [cfg], "F3", small_pg)
    assert err.value.stage == "attached-purpose-intersection" and type(err.value.cause) is UnknownPurposeError
    assert str(err.value.cause) == f"unknown purpose {named}"


def test_an_unknown_purpose_in_a_later_policy_fails_before_any_policy_is_matched(tiny_graph, small_pg, monkeypatch):
    """A party's plan checks every policy's purposes once, before its first
    policy is evaluated, so an unknown purpose in its second policy surfaces
    ahead of the first policy's matching error."""

    def give_up(*_):
        raise SearchLimitError("partition search gave up after 1 steps")

    monkeypatch.setattr(policy, "eval_atomic", give_up)
    cfg = PartyConfig("owner", (_null_policy("first", ap={"mid"}), _null_policy("second", ap={"mid", "ghost", "zz"})))
    for _ in range(2):  # nothing of the faulty plan is kept, so every decision raises
        with pytest.raises(StageError) as err:
            decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
        assert err.value.stage == "policy-evaluation"
        assert type(err.value.cause) is ConfigurationError
        assert str(err.value.cause) == "policy 'second' uses purpose 'ghost' not in the purpose graph"
    known = PartyConfig("owner", (_null_policy("first", ap={"mid"}), _null_policy("second", ap={"root"})))
    with pytest.raises(StageError) as err:
        decide(DataRecord(tiny_graph), Request("s"), [known], "F3", small_pg)
    assert err.value.stage == "policy-evaluation" and type(err.value.cause) is SearchLimitError


def test_a_party_keeps_one_plan_per_purpose_graph_and_none_that_failed(tiny_graph, small_pg):
    cfg = PartyConfig("owner", (_null_policy("grant", ap={"mid", "leafp"}), _null_policy("deny", pp={"leafp"})))
    narrow = PurposeGraph(["root", "mid"], [("root", "mid")], hierarchy_line=0)
    with pytest.raises(ConfigurationError, match="^policy 'grant' uses purpose 'leafp' not in the purpose graph$"):
        cfg.masks(narrow)
    with pytest.raises(ConfigurationError, match="leafp"):
        cfg.masks(narrow)
    plan = cfg.masks(small_pg)
    assert cfg.masks(small_pg) is plan
    bits = small_pg.bits
    assert [(bits.decode(ap), bits.decode(pp)) for ap, pp in plan] == [({"mid", "leafp"}, set()), (set(), {"leafp"})]
    # f_dotplus keeps only what both policies prohibit, which is nothing
    assert decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg).decided == {"mid", "leafp"}


def test_a_party_plan_does_not_keep_its_purpose_graph_alive(tiny_graph):
    cfg = PartyConfig("owner", (_null_policy("grant", ap={"mid"}),))
    pg = PurposeGraph(["root", "mid"], [("root", "mid")], hierarchy_line=0)
    assert pg.bits.decode(cfg.masks(pg)[0][0]) == {"mid"}
    # a stored merge result holds masks and decoded sets, and a trace its config and shape outcomes:
    # nothing of the graph
    outcome = decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", pg)
    assert outcome.decided == {"mid"}
    plan = cfg._plans[pg]
    assert list(plan.merged) == [0b1]
    # the outcome map's key holds the guard mask and the party's leaf values, its value shared decisions
    assert plan.outcomes == {(0b1, MatchValue.FULL): ((cfg.policies[0].applied,), 0b1)}
    del plan
    # the cross-party program keeps the decided set by the parties' result masks, in a map of this graph's own
    by_graph = _party_program("F3", ("owner",))[1]
    assert by_graph[pg] == {((0b10, 0),): {"mid"}}
    gc.collect()
    kept = len(by_graph)
    graph, bits = weakref.ref(pg), weakref.ref(pg.bits)
    del pg
    gc.collect()
    assert graph() is None
    assert bits() is None  # the encoding went with the graph
    assert len(cfg._plans) == 0  # the plan and its map went with the graph
    assert len(by_graph) == kept - 1  # and so did the cross-party map
    assert outcome.parties[0].decisions == (("grant", cfg.policies[0].applied),)


def test_a_dropped_purpose_graph_is_freed_without_the_cyclic_collector():
    cfg = PartyConfig("owner", (_null_policy("grant", ap={"mid"}),))
    pg = PurposeGraph(["root", "mid"], [("root", "mid")], hierarchy_line=0)
    graph = weakref.ref(pg)
    gc.disable()
    try:
        assert pg.bits.decode(cfg.masks(pg)[0][0]) == {"mid"}
        del pg
        # no reference cycle runs through the graph's encoding, so dropping the last reference frees it
        assert graph() is None
        assert len(cfg._plans) == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "policies, message",
    [
        ((), "party 'owner' has no policies"),
        # duplicate ids are found before the unknown purpose either of them names
        ((_null_policy("dup", ap={"ghost"}), _null_policy("dup", ap={"mid"})), "party 'owner' has duplicate policy ids"),
        ((_null_policy("p1", ap={"mid"}), _null_policy("p2", ap={"ghost"})), "policy 'p2' uses purpose 'ghost' not in the purpose graph"),
    ],
)
def test_a_party_plan_checks_the_party_in_order_on_every_decision(tiny_graph, small_pg, monkeypatch, policies, message):
    """A plan checks that its party has policies, then distinct ids, then purposes.

    A faulty plan is not kept, so every decision raises again. Party names
    are checked per call, before any plan; a party's plan is built after the
    parties before it have evaluated their policies, so their faults come first.
    """
    cfg = PartyConfig("owner", policies)
    for _ in range(2):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            cfg.masks(small_pg)
        with pytest.raises(StageError) as err:
            decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
        assert err.value.stage == "policy-evaluation"
        assert type(err.value.cause) is ConfigurationError and str(err.value.cause) == message
    with pytest.raises(ConfigurationError, match="^party names must be distinct"):
        decide(DataRecord(tiny_graph), Request("s"), [cfg, cfg], "F3", small_pg)

    def give_up(*_):
        raise SearchLimitError("partition search gave up after 1 steps")

    monkeypatch.setattr(policy, "eval_atomic", give_up)
    earlier = PartyConfig("first", (_null_policy("p1", ap={"mid"}),))
    with pytest.raises(StageError) as err:
        decide(DataRecord(tiny_graph), Request("s"), [earlier, cfg], "F3", small_pg)
    assert err.value.stage == "policy-evaluation" and type(err.value.cause) is SearchLimitError
    assert len(cfg._plans) == 0


def _subject_guarded(pid, subject, ap):
    return Policy(pid, 4, TreeLeaf(NullCondition()), ap=frozenset(ap), subjects=frozenset({subject}))


def test_a_decision_walks_the_role_order_once_for_all_its_policies(tiny_graph, small_pg, monkeypatch):
    walks = []
    for module in (engine, policy):
        walk = module._reach
        monkeypatch.setattr(module, "_reach", lambda start, order, walk=walk: walks.append(start) or walk(start, order))
    order = {"student": frozenset({"students"})}
    parties = [
        PartyConfig("a", (_subject_guarded("g0", "staff", {"mid"}), _subject_guarded("g1", "students", {"leafp"}))),
        PartyConfig("b", (_subject_guarded("g2", "student", {"leafp"}), _subject_guarded("g3", "staff", {"mid"}))),
    ]
    outcome = decide(DataRecord(tiny_graph), Request("student"), parties, "F3", small_pg, order)
    assert walks == ["student"]
    assert [d.guards_ok for t in outcome.parties for _, d in t.decisions] == [False, True, True, False]
    assert outcome.decided == {"leafp"}


def _rendered_or_error(run):
    """A decision's JSON text, or the stage, class and message of the error it raised."""
    try:
        return json.dumps(outcome_to_dict(run()))
    except StageError as exc:
        return exc.stage, type(exc.cause), str(exc.cause)


def test_a_long_lived_party_config_decides_as_fresh_ones_do():
    """Stored shape outcomes and merge results answer a stream of requests as fresh plans and the oracle would.

    Each case's parties, half of them with policies sharing shapes, decide
    requests drawn from a few records and subjects, and then the same
    requests again in shuffled order, so keys and applicability vectors
    recur; every decision's rendering, or the error it raised, must equal
    that of new `PartyConfig`s, and a decision's sets the oracle's.
    """
    decided = stored = stored_outcomes = 0
    for seed in range(150):
        rng = random.Random(seed)
        case = (random_prohibiting_case if seed % 3 == 0 else random_decision_case)(rng)
        if seed % 2:
            case = with_shared_shapes(rng, case)
        pg = PurposeGraph(case.purposes, case.edges, hierarchy_line=case.line)
        external = case.external if isinstance(case.external, str) else _text(case.external)

        def configs():
            return [PartyConfig(name, policies, None if expr is None else _text(expr)) for name, policies, expr in case.parties]

        kept = configs()
        requests = repeated_requests(rng, case, 12)
        for record, request in requests + rng.sample(requests, len(requests)):
            got = _rendered_or_error(lambda: decide(record, request, kept, external, pg, case.role_order))
            assert got == _rendered_or_error(lambda: decide(record, request, configs(), external, pg, case.role_order))
            if isinstance(got, str):
                decided += len(kept)
                asked = case._replace(graph=record.provenance, category=record.category, subject=request.subject)
                sets, results = oracle_decide(**asked._asdict())
                rendered = json.loads(got)
                assert rendered["decided"] == sorted(sets)
                assert [(t["ap"], t["pp"]) for t in rendered["parties"]] == [(sorted(a), sorted(p)) for a, p in results]
        stored += sum(len(cfg._plans[pg].merged) for cfg in kept if pg in cfg._plans)
        stored_outcomes += sum(len(cfg._plans[pg].outcomes) for cfg in kept if pg in cfg._plans)
    # most shape outcomes and party results came from the stored ones
    assert 0 < stored < decided / 3 and 0 < stored_outcomes < decided / 2


def test_a_full_plan_stores_no_more_results_and_decides_as_before(tiny_graph, small_pg):
    """Past the bound, results are computed on every decision and not stored."""
    n = _BoundedMap.bound.bit_length()  # 2**n vectors, more than the bound
    party = tuple(_subject_guarded(f"g{i}", f"r{i}", {"mid"} if i % 2 else {"leafp"}) for i in range(n))
    # requester s{k} reaches role r{i} for every bit i of k
    order = {f"s{k}": frozenset(f"r{i}" for i in range(n) if k >> i & 1) for k in range(2**n)}
    kept = PartyConfig("owner", party)
    for _ in range(2):
        for k in range(2**n):
            record, request = DataRecord(tiny_graph), Request(f"s{k}")
            got = outcome_to_dict(decide(record, request, [kept], "F3", small_pg, order))
            assert got == outcome_to_dict(decide(record, request, [PartyConfig("owner", party)], "F3", small_pg, order))
    plan = kept._plans[small_pg]
    assert list(plan.merged) == list(range(_BoundedMap.bound))
    # requester s{k} reaches the roles of k's bits, so k is its guard mask, and every policy's null leaf is FULL
    reached = [frozenset(f"r{i}" for i in range(n) if k >> i & 1) for k in range(_BoundedMap.bound)]
    assert list(plan.guards) == [(roles, None) for roles in reached]
    leaves = sum(MatchValue.FULL << 2 * i for i in range(n))
    assert list(plan.outcomes) == [(k, leaves) for k in range(_BoundedMap.bound)]


def test_every_map_kept_across_decisions_is_one_bounded_store(tiny_graph, small_pg):
    """A party plan's maps and a cross-party program's are each a store, and an encoding keeps none of its own.

    So no map skips the bound. A store keeps the first `bound` keys it is
    given; a later value is returned but not stored.
    """
    cfg = PartyConfig("owner", (_null_policy("grant", ap={"mid"}),))
    decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
    plan = cfg._plans[small_pg]
    assert [type(field) for field in plan] == [tuple, _BoundedMap, _BoundedMap, _BoundedMap]  # masks, then the maps
    assert {type(decided) for decided in _party_program("F3", ("owner",))[1].values()} == {_BoundedMap}
    bits = small_pg.bits
    assert [name for name, value in vars(bits).items() if isinstance(value, dict)] == ["_ranks"]
    assert bits._ranks is small_pg._rank  # the graph's table, read only
    store, bound = _BoundedMap(), _BoundedMap.bound
    assert bound == 128 and not hasattr(store, "__dict__")
    assert [store.keep(k, f"v{k}") for k in range(bound + 2)] == [f"v{k}" for k in range(bound + 2)]
    assert store == {k: f"v{k}" for k in range(bound)}


def test_a_cross_party_program_evicted_from_its_cache_decides_as_fresh_configs_and_the_oracle(tiny_graph, small_pg):
    """`_party_program` keeps 64 programs, so 65 distinct texts evict the first, which is compiled again."""
    parties = [
        ("a", (_null_policy("ga", ap={"mid", "leafp"}, pp={"root"}),), None),
        ("b", (_null_policy("gb", ap={"mid"}, pp={"leafp"}),), None),
    ]
    kept = [PartyConfig(name, policies) for name, policies, _ in parties]
    refs = ("ref", "a"), ("ref", "b")
    calls = [("call", f"F{i}", args) for i in range(1, 9) for args in (refs, refs[::-1])]
    # 16 calls, each text wrapped in 0-4 pairs of parentheses: 65 distinct texts
    cases = [("(" * (k // 16) + _text(calls[k % 16]) + ")" * (k // 16), calls[k % 16]) for k in range(65)]
    record, request = DataRecord(tiny_graph), Request("s")

    def check(text, tree):
        warm = decide(record, request, kept, text, small_pg)
        fresh = decide(record, request, [PartyConfig(name, policies) for name, policies, _ in parties], text, small_pg)
        assert outcome_to_dict(warm) == outcome_to_dict(fresh)
        decided, results = oracle_decide(tiny_graph, None, "s", None, parties, tree, *_SMALL, 1)
        assert warm.decided == decided and [(t.result.ap, t.result.pp) for t in warm.parties] == results

    for case in cases:
        check(*case)
    misses = _party_program.cache_info().misses
    check(*cases[0])
    assert _party_program.cache_info().misses == misses + 1  # the first text was evicted, and compiled again


def test_policy_order_and_party_order_can_change_a_decision(tiny_graph, small_pg):
    """The default f_dotplus fold and a bare cross-party function both fold left, and neither is free of order.

    f_dotplus subtracts at each step what every policy so far prohibits, so
    `both`'s leafp is dropped by `deny` unless `grant`, which prohibits
    nothing, came first. Parties x and y, merged first by F3, subtract the
    leafp they both prohibit; merged after z, they meet a decision that
    prohibits nothing.
    """
    both, deny, grant = (
        _null_policy("both", ap={"leafp"}, pp={"leafp"}), _null_policy("deny", pp={"leafp"}), _null_policy("grant", ap={"mid"})
    )
    x, y, z = (("x", (both,)), ("y", (_null_policy("y", ap={"leafp"}, pp={"leafp"}),)), ("z", (_null_policy("z", ap={"leafp"}),)))
    orders = [
        ([("owner", (both, deny, grant))], {"mid"}),
        ([("owner", (grant, both, deny))], {"mid", "leafp"}),
        ([x, y, z], set()),
        ([z, x, y], {"leafp"}),
    ]
    for named, want in orders:
        outcome = decide(DataRecord(tiny_graph), Request("s"), [PartyConfig(*party) for party in named], "F3", small_pg)
        decided, results = oracle_decide(tiny_graph, None, "s", None, [(*party, None) for party in named], "F3", *_SMALL, 1)
        assert outcome.decided == decided == want
        assert [(t.result.ap, t.result.pp) for t in outcome.parties] == results


def test_many_outcome_vectors_with_one_applicability_vector_store_one_result(tiny_graph, small_pg):
    """Shape outcomes that differ but apply no policy share one stored merge result.

    No policy applies, so every request has the same applicability vector,
    but each reaches its own set of subject guards: more outcome vectors
    than the bound, one merge result stored, and every rendering as fresh
    configs give it.
    """
    n = _BoundedMap.bound.bit_length()  # 2**n outcome vectors, more than the bound
    absent = TreeLeaf(VertexCondition(VertexType.AGENT, "nobody"))
    party = tuple(
        Policy(f"g{i}{twin}", 4, absent, ap=frozenset({ap}), subjects=frozenset({f"r{i}"}))
        for i in range(n)
        for twin, ap in (("a", "mid"), ("b", "leafp"))
    )
    order = {f"s{k}": frozenset(f"r{i}" for i in range(n) if k >> i & 1) for k in range(2**n)}
    kept = PartyConfig("owner", party)
    for _ in range(2):
        for k in range(2**n):
            record, request = DataRecord(tiny_graph), Request(f"s{k}")
            got = outcome_to_dict(decide(record, request, [kept], "F3", small_pg, order))
            assert got == outcome_to_dict(decide(record, request, [PartyConfig("owner", party)], "F3", small_pg, order))
    reps, shape_of, members = kept._shapes
    assert shape_of == tuple(i for i in range(n) for _ in "ab") and reps == party[::2]
    assert members == tuple(0b11 << 2 * i for i in range(n))
    assert list(kept._plans[small_pg].merged) == [0]


def test_the_first_policy_to_raise_fails_the_decision_and_nothing_is_stored(tiny_graph, small_pg, monkeypatch):
    """Leaves are matched in the shapes' order of first appearance, so the error is the one policy order gives.

    p1 (shape A) is fine, p2 (shape B) and p3 (shape C) raise, and p4 has
    shape B again, built anew. Evaluating every policy in order, p2 raises
    first; so must the party's leaf pass, before any shape is evaluated.
    """
    atomic = policy.eval_atomic
    matched = []

    def raise_by_name(cond, graph, query_attrs=None, memo=None):
        matched.append(cond)
        if isinstance(cond, VertexCondition):
            raise SearchLimitError(cond.name)
        return atomic(cond, graph, query_attrs, memo)

    monkeypatch.setattr(policy, "eval_atomic", raise_by_name)
    shape = {name: TreeLeaf(VertexCondition(VertexType.AGENT, name)) for name in "BC"}
    cfg = PartyConfig(
        "owner",
        (
            _null_policy("p1", ap={"mid"}),
            Policy("p2", 1, shape["B"], ap=frozenset({"mid"})),
            Policy("p3", 1, shape["C"], ap=frozenset({"leafp"})),
            Policy("p4", 2, TreeLeaf(VertexCondition(VertexType.AGENT, "B")), pp=frozenset({"mid"})),
        ),
    )
    for _ in range(2):
        with pytest.raises(StageError) as err:
            decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
        assert err.value.stage == "policy-evaluation"
        assert type(err.value.cause) is SearchLimitError and str(err.value.cause) == "B"
    # B raises in each decision, and C is never reached
    assert [type(c) for c in matched] == [NullCondition, VertexCondition] * 2
    assert all(c is shape["B"].condition for c in matched[1::2])
    reps, shape_of, members = cfg._shapes
    assert shape_of == (0, 1, 2, 1) and [p.id for p in reps] == ["p1", "p2", "p3"]
    assert members == (0b0001, 0b1010, 0b0100)
    plan = cfg._plans[small_pg]
    assert plan.outcomes == {} and plan.merged == {}


def test_a_repeated_key_evaluates_no_shape_and_users_of_one_role_share_it(tiny_graph, small_pg, monkeypatch):
    """A decision whose key was met before checks no guard and runs no tree.

    The guard key holds only the roles the party's guards name, so users who
    hold the same named roles share one stored entry, whatever else they
    reach; another category is another guard key. A new guard key checks
    each shape's guards once. A new outcome key evaluates each shape whose
    guards pass, checking its guards again, and runs only the tree of each
    other shape: a guard key whose guard mask was met before, with the same
    leaf values, runs no tree.
    """
    calls = {}
    for module, name in ((engine, "evaluate_policy"), (policy, "guards_pass"), (policy, "eval_access_tree")):
        def counting(*args, fn=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    tree = TreeBranch(TreeOp.AND, (TreeLeaf(VertexCondition(VertexType.ARTIFACT, "report")), TreeLeaf(NullCondition())))
    cfg = PartyConfig(
        "owner",
        (
            Policy("staff", 4, tree, ap=frozenset({"mid"}), subjects=frozenset({"staff"})),
            Policy("grades", 4, tree, ap=frozenset({"leafp"}), categories=frozenset({"grades"})),
            _null_policy("open", pp={"leafp"}),
        ),
    )
    order = {
        "alice": frozenset({"staff"}), "bob": frozenset({"staff"}), "carol": frozenset({"guest"}), "dave": frozenset({"intern"}),
    }

    def run(subject, category="assignment"):
        calls.update(evaluate_policy=0, guards_pass=0, eval_access_tree=0)
        record = DataRecord(tiny_graph, category=category)
        got = decide(record, Request(subject), [cfg], "F3", small_pg, order)
        return sorted(got.decided), dict(calls)

    # three shapes' guards checked; staff's and open's pass and are evaluated, grades' fails and its tree runs
    each = {"evaluate_policy": 2, "guards_pass": 3 + 2, "eval_access_tree": 2 + 1}
    nothing = {"evaluate_policy": 0, "guards_pass": 0, "eval_access_tree": 0}
    assert run("alice") == (["mid"], each)
    assert run("alice") == run("bob") == (["mid"], nothing)
    # only open's guards pass
    assert run("carol") == ([], {"evaluate_policy": 1, "guards_pass": 3 + 1, "eval_access_tree": 1 + 2})
    assert run("dave") == ([], nothing)
    # a new guard key with alice's guard mask: the guards are checked, and no shape is evaluated
    assert run("alice", "essays") == (["mid"], {"evaluate_policy": 0, "guards_pass": 3, "eval_access_tree": 0})
    plan = cfg._plans[small_pg]
    staff, none = frozenset({"staff"}), frozenset()
    assert list(plan.guards) == [(staff, "assignment"), (none, "assignment"), (staff, "essays")]
    # the report leaf, the tree's null leaf and the open policy's, each FULL
    assert list(plan.outcomes) == [(0b101, 0b11_11_11), (0b100, 0b11_11_11)]
    assert len(plan.merged) == 2


@pytest.mark.parametrize("category", [5, ["grades"], b"grades"])
def test_a_record_category_that_is_not_text_fails_policy_evaluation(tiny_graph, small_pg, category):
    """Only a string or None is a category: anything else is refused before any party is evaluated."""
    cfg = PartyConfig("owner", (_null_policy("open", ap={"mid"}),))
    with pytest.raises(StageError) as err:
        decide(DataRecord(tiny_graph, category=category), Request("s"), [cfg], "F3", small_pg)
    assert err.value.stage == "policy-evaluation"
    assert type(err.value.cause) is InputFormatError
    assert str(err.value.cause) == f"record category must be a string or None, got {category!r}"
    assert small_pg not in cfg._plans


@pytest.mark.parametrize("seniors", ["admin", ["a", 1], None, {"a": 1}])
def test_a_list_of_seniors_the_walk_meets_is_read_as_the_role_order_loader_reads_it(tiny_graph, small_pg, seniors):
    """The string "admin" is refused, not walked as the roles "a", "d", "m", "i" and "n": that would release
    "mid" to a clerk through a policy whose subject is "a". An entry the walk never meets is not read.
    """
    cfg = PartyConfig("owner", (Policy("p", 4, TreeLeaf(NullCondition()), ap={"mid"}, subjects={"a"}),))
    record, clerk = DataRecord(tiny_graph), Request("clerk")
    with pytest.raises(InputFormatError) as loaded:
        role_order_from_dict({"clerk": seniors})
    with pytest.raises(StageError) as err:
        decide(record, clerk, [cfg], "F3", small_pg, role_order={"clerk": seniors})
    assert err.value.stage == "policy-evaluation"
    assert type(err.value.cause) is InputFormatError and str(err.value.cause) == str(loaded.value)
    assert small_pg not in cfg._plans
    unmet = decide(record, clerk, [cfg], "F3", small_pg, role_order={"clerk": ["staff"], "guest": seniors})
    assert unmet.decided == frozenset()
    assert decide(record, clerk, [cfg], "F3", small_pg, role_order={"clerk": ["a"]}).decided == {"mid"}


def test_a_warm_plan_sees_an_added_edge_and_a_changed_role_order(small_pg):
    """Leaf values and the requester's reach are read afresh in every decision, stored entries or not."""
    doc = {
        "provenance_partitions": {"c": {"partition": {
            "vertices": [{"ref": "a", "type": "artifact", "name": "report"},
                         {"ref": "p", "type": "process", "name": "ingest"}],
            "edges": [["a", "p", "wasGeneratedBy"]],
        }}},
        "subject": ["staff"],
        "AP": ["mid"],
    }
    cfg = PartyConfig("owner", (policy_from_dict(doc, "pa"),))
    graph = ProvenanceGraph()
    report, ingest = graph.add_vertex(VertexType.ARTIFACT, "report"), graph.add_vertex(VertexType.PROCESS, "ingest")
    order = {"alice": frozenset({"staff"})}

    def run():
        outcome = decide(DataRecord(graph), Request("alice"), [cfg], "F3", small_pg, order)
        (_, d), = outcome.parties[0].decisions
        return outcome.decided, d.tree_value, d.guards_ok

    assert run() == (frozenset(), MatchValue.NONE, True)
    graph.add_edge(report, ingest, EdgeLabel.WAS_GENERATED_BY)
    assert run() == ({"mid"}, MatchValue.FULL, True)
    order["alice"] = frozenset()
    assert run() == (frozenset(), MatchValue.FULL, False)
    order["alice"] = frozenset({"staff"})
    assert run() == ({"mid"}, MatchValue.FULL, True)
    assert len(cfg._plans[small_pg].outcomes) == 3


def test_a_tree_nested_to_the_bound_is_grouped_by_value(tiny_graph, small_pg):
    def deep():
        tree = TreeLeaf(NullCondition())
        for _ in range(MAX_NESTING):
            tree = TreeBranch(TreeOp.AND, (tree,))
        return tree

    grant, deny = Policy("p1", 1, deep(), ap=frozenset({"mid"})), Policy("p2", 2, deep(), pp=frozenset({"leafp"}))
    cfg = PartyConfig("owner", (grant, deny))
    outcome = decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
    assert cfg._shapes == ((grant,), (0, 0), (0b11,))
    assert [d for _, d in outcome.parties[0].decisions] == [p.applied for p in cfg.policies]
    assert outcome.decided == {"mid"}


def test_a_trace_builds_its_policy_decisions_when_first_read(tiny_graph, small_pg):
    """`decide` leaves each party's per-policy tuple unbuilt; its first read builds it, once.

    grant and deny share a shape, whose outcome is grant's own decision, yet
    deny's entry is deny's; the guarded policy gets its shape's declined one.
    """
    grant, deny = _null_policy("grant", ap={"mid"}), _null_policy("deny", pp={"leafp"})
    guarded = _subject_guarded("staff", "staff", {"leafp"})
    parties = [PartyConfig("owner", (grant, guarded, deny)), PartyConfig("other", (guarded,))]
    outcome = decide(DataRecord(tiny_graph), Request("s"), parties, "F3", small_pg)
    assert all("decisions" not in vars(trace) for trace in outcome.parties)
    trace = outcome.parties[0]
    assert trace.config is parties[0] and "config" not in repr(trace)
    assert trace.outcomes[0] is grant.applied and not trace.outcomes[1].guards_ok
    decisions = trace.decisions
    assert trace.decisions is decisions and "decisions" not in vars(outcome.parties[1])
    assert [pid for pid, _ in decisions] == ["grant", "staff", "deny"]
    # the very objects each policy gets alone: its own applied decision, or a shared declined one
    alone = [evaluate_policy(pol, tiny_graph, Request("s"), memo={}) for pol in parties[0].policies]
    assert all(d is e for (_, d), e in zip(decisions, alone))
    assert alone[0] is grant.applied and alone[1] is trace.outcomes[1] and alone[2] is deny.applied


def test_an_outcome_pickles_with_its_configs_fields_only(tiny_graph, small_pg):
    """A trace holds its `PartyConfig`, whose plans are weakly keyed; pickling sends the fields, not the plans."""
    cfg = PartyConfig("owner", (_null_policy("grant", ap={"mid"}), _subject_guarded("staff", "staff", {"leafp"})))
    outcome = decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
    back = pickle.loads(pickle.dumps(outcome))
    assert back == outcome and outcome_to_dict(back) == outcome_to_dict(outcome)
    assert back.parties[0].config == cfg and "_plans" not in vars(back.parties[0].config)


def _raising_vertex_leaves(monkeypatch):
    """Make every vertex leaf raise `SearchLimitError(its name)`; return the list of leaves matched."""
    atomic, matched = policy.eval_atomic, []

    def raise_by_name(cond, graph, query_attrs=None, memo=None):
        matched.append(cond)
        if isinstance(cond, VertexCondition):
            raise SearchLimitError(cond.name)
        return atomic(cond, graph, query_attrs, memo)

    monkeypatch.setattr(policy, "eval_atomic", raise_by_name)
    return matched


def _staff_only(pid, name, ap):
    leaf = TreeLeaf(VertexCondition(VertexType.AGENT, name))
    return Policy(pid, 4, leaf, ap=frozenset(ap), subjects=frozenset({"staff"}))


def test_a_leaf_under_failed_guards_fails_the_decision(tiny_graph, small_pg, monkeypatch):
    """A shape whose guards fail cannot apply, yet its tree value is in the trace: `decide` matches its leaf.

    So that leaf's fault fails `decide` as any other leaf's does, and
    nothing is stored; once the leaf matches, the trace holds the tree value.
    """
    matched = _raising_vertex_leaves(monkeypatch)
    staff = _staff_only("staff", "B", {"mid"})
    cfg = PartyConfig("owner", (_null_policy("open", ap={"leafp"}), staff))
    for subject in ("s", "staff"):
        with pytest.raises(StageError) as err:
            decide(DataRecord(tiny_graph), Request(subject), [cfg], "F3", small_pg)
        assert err.value.stage == "policy-evaluation"
        assert type(err.value.cause) is SearchLimitError and str(err.value.cause) == "B"
    assert [type(c) for c in matched] == [NullCondition, VertexCondition] * 2
    assert cfg._plans[small_pg].outcomes == {}
    monkeypatch.undo()
    outcome = decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
    # tiny_graph has an agent, but none named B
    assert [d for _, d in outcome.parties[0].decisions] == [cfg.policies[0].applied, policy._DECLINED[MatchValue.TYPES, False]]


def test_leaf_faults_come_in_shape_order_whatever_the_guards(tiny_graph, small_pg, monkeypatch):
    """Both leaves raise. The first shape's guards fail, and its leaf's fault is the one `decide` raises."""
    matched = _raising_vertex_leaves(monkeypatch)
    staff_a = _staff_only("staff", "A", {"mid"})
    cfg = PartyConfig("owner", (staff_a, Policy("open", 1, TreeLeaf(VertexCondition(VertexType.AGENT, "B")), ap=frozenset({"leafp"}))))
    with pytest.raises(StageError) as err:
        decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", small_pg)
    assert err.value.stage == "policy-evaluation"
    assert type(err.value.cause) is SearchLimitError and str(err.value.cause) == "A"
    assert matched == [staff_a.tree.condition]
    assert cfg._plans[small_pg].outcomes == {}


def test_policies_of_one_shape_get_the_decisions_they_would_get_alone():
    """Copies of policies' trees and guards, with other AP/PP, decide as if each policy ran alone.

    Every trace entry is the very decision `evaluate_policy` gives that
    policy with a fresh memo, and a long-lived configuration renders each
    request of a stream as fresh ones do.
    """
    shared = by_value = 0
    for seed in range(150):
        rng = random.Random(seed)
        case = with_shared_shapes(rng, (random_prohibiting_case if seed % 3 == 0 else random_decision_case)(rng))
        pg = PurposeGraph(case.purposes, case.edges, hierarchy_line=case.line)
        external = case.external if isinstance(case.external, str) else _text(case.external)

        def configs():
            return [PartyConfig(name, policies, None if expr is None else _text(expr)) for name, policies, expr in case.parties]

        kept = configs()
        for record, request in repeated_requests(rng, case, 12):
            got = _rendered_or_error(lambda: decide(record, request, kept, external, pg, case.role_order))
            assert got == _rendered_or_error(lambda: decide(record, request, configs(), external, pg, case.role_order))
            if isinstance(got, str):
                for trace, cfg in zip(decide(record, request, kept, external, pg, case.role_order).parties, kept):
                    alone = [
                        evaluate_policy(pol, record.provenance, request, record.category, case.role_order, memo={})
                        for pol in cfg.policies
                    ]
                    assert [pid for pid, _ in trace.decisions] == [pol.id for pol in cfg.policies]
                    assert all(d is e for (_, d), e in zip(trace.decisions, alone))
        for cfg in kept:
            reps, shape_of, _ = cfg._shapes
            shared += sum(reps[s] is not pol for s, pol in zip(shape_of, cfg.policies))
            by_value += sum(reps[s].tree is not pol.tree for s, pol in zip(shape_of, cfg.policies))
    assert 0 < by_value < shared  # shapes shared a tree object, and some only a tree's value


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


def _case_study():
    """The case study's record, request, parties, purpose graph and role order."""
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
    return record, request, [PartyConfig("source", (source,)), PartyConfig("repository", (repo,))], pg, role_order


def test_case_study_end_to_end():
    record, request, parties, pg, role_order = _case_study()
    outcome = decide(record, request, parties, "F3", pg, role_order=role_order)
    assert outcome.decided == {"education"}
    for trace in outcome.parties:
        for _, d in trace.decisions:
            assert d.applicable


def test_no_encoding_is_built_besides_a_graphs_own(monkeypatch):
    """Set operands run as sets and decide's masks use the graph's own bits."""
    record, request, parties, case_pg, role_order = _case_study()
    pg = PurposeGraph(["root", "high1", "low1", "low2"], [("root", "high1"), ("high1", "low1"), ("low1", "low2")], 1)
    pg.bits, case_pg.bits  # each graph's own encoding, built before counting starts
    built = []
    init = PurposeBits.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PurposeBits, "__init__", counted)

    env = {"S1": split_result(pg, {"root", "low1"}, {"low2"}), "S2": split_result(pg, {"high1", "low2"}, set())}
    assert eval_fida("f_dotplus(S1, S2) upmax S2", env) == HierarchicalPurposeSet({"root", "high1", "low1", "low2"}, set())
    assert eval_fida_plain("A downmin B", {"A": {"root", "low1"}, "B": {"high1"}}, pg) == {"root", "low1"}
    results = [PartyResult("m", frozenset({"root", "low1"}), frozenset({"low2"})), PartyResult("n", frozenset({"high1"}))]
    masks = {r.party: (pg.bits.encode(r.ap), pg.bits.encode(r.pp)) for r in results}
    for text in ("F5", "F5(m + n, n)", "F5(m, n) upmax n"):
        assert merge_parties(results, text, pg) == merge_parties(masks, text, pg)
    assert decide(record, request, parties, "F3", case_pg, role_order=role_order).decided == {"education"}
    assert built == []


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

    def counting_eval_atomic(cond, graph, query_attrs=None, memo=None):
        calls.append(dict(query_attrs))
        return eval_atomic(cond, graph, query_attrs, memo)

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



def test_a_query_leaf_beside_other_leaves_matches_the_oracle(tiny_graph, small_pg):
    """A query's lower levels come through the decision's memo, shared with the leaves beside it.

    The vertex leaf and the attribute leaf's coarser partition equal the
    query's own fallback partition by value; each request decides afresh.
    """
    query = QueryCondition(VertexType.ARTIFACT, "report", "size", Predicate.LEQ)  # report has size 4
    others = [
        VertexCondition(VertexType.ARTIFACT, "report"),
        AttrCondition(VertexType.ARTIFACT, "report", "size", Predicate.GT, 10),
        VertexCondition(VertexType.AGENT, "bob"),
        QueryCondition(VertexType.ARTIFACT, "memo", "size", Predicate.GEQ),
    ]
    trees = [TreeLeaf(query)] + [
        TreeBranch(op, (TreeLeaf(query), TreeLeaf(leaf))) for leaf in others for op in TreeOp
    ]
    purposes, edges = ["root", "mid", "leafp"], [("root", "mid"), ("mid", "leafp")]
    parties = [
        ("A", tuple(Policy(f"a{i}", 1, t, ap=frozenset({purposes[i % 3]})) for i, t in enumerate(trees)), None),
        ("B", tuple(
            Policy(f"b{i}", 3, t, ap=frozenset({purposes[i % 2]}), pp=frozenset({"leafp"}))
            for i, t in enumerate(reversed(trees))
        ), None),
    ]
    configs = [PartyConfig(name, policies) for name, policies, _ in parties]
    fallback = query.partition
    decided_sets = set()
    for size in (2, 4, 8, "big"):
        attrs = {"size": size}
        outcome = decide(DataRecord(tiny_graph), Request("anyone", query_attrs=attrs), configs, "F1", small_pg)
        decided, results = oracle_decide(
            tiny_graph, None, "anyone", None, parties, "F1", purposes, edges, 1, query_attrs=attrs
        )
        assert outcome.decided == decided
        assert [(t.result.ap, t.result.pp) for t in outcome.parties] == results
        # each tree's value is the one it gets alone, with a memo of its own
        alone = [eval_access_tree(p.tree, tiny_graph, attrs) for _, policies, _ in parties for p in policies]
        assert _tree_values(outcome) == alone
        assert query.partition is fallback
        decided_sets.add(decided)
    assert len(decided_sets) > 1

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


def test_skeleton_families_in_parties_decide_as_the_oracle_and_as_each_leaf_alone(monkeypatch):
    """Parties whose leaves are one skeleton family's partitions, decided twice on one set of configs.

    The warm decision is the oracle's, and it renders as the decision of
    fresh configs whose every enumeration takes too many steps does: each
    leaf outside a group is matched alone, with a fresh memo, and each leaf
    of a group is searched alone at its group's step. Those values are
    packed as a grading packs them, so each party's outcome keys are the
    warm configs' keys: equal leaf values give one key, graded or matched
    alone.
    """
    largest = []

    def alone(cond, graph, query_attrs, memo):
        value = memo[id(cond)] = policy._match_leaf(cond, graph, query_attrs, {})
        return value

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        case = skeleton_family_case(rng)
        pg = PurposeGraph(case.purposes, case.edges, hierarchy_line=case.line)
        record = DataRecord(case.graph, category=case.category, attached_purposes=case.attached)

        def decided_by(configs):
            return decide(record, Request(case.subject), configs, case.external, pg)

        configs = [PartyConfig(name, policies) for name, policies, _ in case.parties]
        decided_by(configs)
        warm = decided_by(configs)
        decided, results = oracle_decide(**case._asdict())
        assert warm.decided == decided
        assert [(t.result.ap, t.result.pp) for t in warm.parties] == results
        with monkeypatch.context() as m:
            m.setattr(engine, "_match_leaf", alone)
            m.setattr(matching, "_all_embeddings", lambda p, graph: None)
            alone_configs = [PartyConfig(name, policies) for name, policies, _ in case.parties]
            fresh = decided_by(alone_configs)
        assert outcome_to_dict(warm) == outcome_to_dict(fresh)
        assert [set(cfg._plan(pg).outcomes) for cfg in alone_configs] == [set(cfg._plan(pg).outcomes) for cfg in configs]
        largest.append(max((len(group.members) for cfg in configs for group in party_groups(cfg).values()), default=0))

    check()
    assert max(largest) >= 4 and sum(n >= 2 for n in largest) > 100


def test_groups_change_no_decision_and_no_fault_at_a_small_step_budget(monkeypatch):
    """Skeleton family cases at budgets of 0-5 steps, each decided by fresh configs with groups and without.

    Where the grouped configs raise, the ungrouped ones raise the same
    :class:`StageError`; where both decide, they render alike. Where only
    the grouped configs decide, as where a leaf's own search gives up but
    its group's enumeration does not, they decide as at the default budget.
    Random skeleton families of so small a graph almost never give that
    last case, so a fifth of the cases draw on
    :func:`conftest.coarser_plan_case`'s graph and partitions, whose plans
    differ.
    """
    seen = set()
    skewed = coarser_plan_case()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 5))
    def check(seed, budget):
        rng = random.Random(seed)
        case = skeleton_family_case(rng, (skewed[0], skewed[1:]) if rng.random() < 0.2 else None)
        pg = PurposeGraph(case.purposes, case.edges, hierarchy_line=case.line)
        record = DataRecord(case.graph, category=case.category, attached_purposes=case.attached)

        def decided(grouped=True):
            configs = [PartyConfig(name, policies) for name, policies, _ in case.parties]
            with monkeypatch.context() as m:
                if not grouped:
                    m.setattr(engine, "partition_groups", tuple)
                try:
                    return outcome_to_dict(decide(record, Request(case.subject), configs, case.external, pg))
                except StageError as err:
                    return err.stage, type(err.cause), str(err.cause)

        with monkeypatch.context() as m:
            m.setattr(matching, "MAX_SEARCH_STEPS", budget)
            grouped, ungrouped = decided(), decided(grouped=False)
        if type(grouped) is tuple:
            assert ungrouped == grouped
            seen.add("both raise")
        elif type(ungrouped) is tuple:
            assert grouped == decided()
            seen.add("only grouped decides")
        else:
            assert grouped == ungrouped
            seen.add("both decide")

    check()
    assert seen == {"both raise", "only grouped decides", "both decide"}


def _cycle_with(k):
    """A wasDerivedFrom 8-cycle of unnamed Artifacts whose first asks for ``k == k``."""
    return ProvenancePartition(
        tuple(
            PatternVertex(f"p{i}", VertexType.ARTIFACT, None, (AttrConstraint("k", Predicate.EQ, k),) if i == 0 else ())
            for i in range(8)
        ),
        tuple(PatternEdge(f"p{i}", f"p{(i + 1) % 8}", EdgeLabel.WAS_DERIVED_FROM) for i in range(8)),
    )


def test_a_group_whose_enumeration_takes_too_many_steps_faults_in_the_same_search(monkeypatch):
    """Artifacts c0-c7, with k = 0-7, derived in a cycle, then a complete 32-vertex DAG whose top has k = 100.

    The coarser 8-cycle's first embedding is found from c0 in a few steps,
    but enumerating them all walks the DAG past `MAX_SEARCH_STEPS`. So after
    that one enumeration :func:`match_group` searches each partition of a
    group on its own, at the group's step, in leaf order, and the first
    party decides. The second party's group meets that enumeration in the
    memo and runs none; its cycle asking for k = 100 starts at the DAG's top
    and gives up in its own search: the same searches in the same order,
    and the same fault at the same leaf, as without groups.
    """
    g = ProvenanceGraph()
    cycle = [g.add_vertex(VertexType.ARTIFACT, f"c{i}", {"k": i}) for i in range(8)]
    for i in range(8):
        g.add_edge(cycle[i], cycle[(i + 1) % 8], EdgeLabel.WAS_DERIVED_FROM)
    dag = [g.add_vertex(VertexType.ARTIFACT, f"a{i}", {"k": 100} if i == 31 else None) for i in range(32)]
    for j in range(32):
        for i in range(j):
            g.add_edge(dag[j], dag[i], EdgeLabel.WAS_DERIVED_FROM)
    one, five, nine, three, top = map(_cycle_with, (1, 5, 9, 3, 100))
    coarser = one.coarser[0]
    pg = PurposeGraph(["root", "mid"], [("root", "mid")], hierarchy_line=0)

    def party(name, parts):
        return PartyConfig(name, tuple(Policy(f"q{i}", 1, TreeLeaf(p), ap={"mid"}) for i, p in enumerate(parts)))

    first, second = party("first", (one, five, nine)), party("second", (three, top))
    assert [len(group.members) for cfg in (first, second) for group in party_groups(cfg).values()] == [3, 3, 3, 2, 2]
    runs = []  # each search and enumeration, in order
    find, enumerate_all = matching._find_embedding, matching._all_embeddings
    monkeypatch.setattr(matching, "_find_embedding", lambda p, graph: runs.append(("search", p)) or find(p, graph))
    monkeypatch.setattr(
        matching, "_all_embeddings", lambda p, graph: runs.append(("enumerate", p)) or enumerate_all(p, graph)
    )
    outcome = decide(DataRecord(g), Request("s"), [first], "F3", pg)
    values = [d["tree_value"] for d in outcome_to_dict(outcome)["parties"][0]["policies"]]
    assert values == ["full", "full", "names-only"]
    # the first leaf enumerates, then each is searched alone
    decided_first = [("enumerate", coarser), ("search", one), ("search", five), ("search", nine), ("search", coarser)]
    assert runs == decided_first
    del runs[:]
    with pytest.raises(StageError) as err:
        decide(DataRecord(g), Request("s"), [first, second], "F3", pg)
    assert err.value.stage == "policy-evaluation" and type(err.value.cause) is SearchLimitError
    assert str(err.value.cause) == f"partition search gave up after {matching.MAX_SEARCH_STEPS} steps"
    assert runs == decided_first + [("search", three), ("search", top)]


def test_a_groups_first_leaf_is_graded_where_its_own_search_gives_up(monkeypatch):
    """A party of :func:`conftest.coarser_plan_case`'s `later` then `first`, at budgets of 3 and 0.

    At 3, `later`'s own search gives up, but as its group's first leaf it is
    graded against the coarser's one-step enumeration, and the party decides
    as at the default budget. At 0 the enumeration gives up too: `later` is
    searched alone at its group's step, and faults there as without groups.
    """
    g, first, later = coarser_plan_case()
    pg = PurposeGraph(["root", "mid"], [("root", "mid")], hierarchy_line=0)
    coarser = later.coarser[0]

    def decided(parties):
        return outcome_to_dict(decide(DataRecord(g), Request("s"), parties, "F3", pg))

    def party():
        return PartyConfig("p", tuple(Policy(f"q{i}", 1, TreeLeaf(p), ap={"mid"}) for i, p in enumerate((later, first))))

    reference = decided([party()])
    assert [d["tree_value"] for d in reference["parties"][0]["policies"]] == ["types-only"] * 2
    runs = []  # each search and enumeration, in order
    find, enumerate_all = matching._find_embedding, matching._all_embeddings
    monkeypatch.setattr(matching, "_find_embedding", lambda p, graph: runs.append(("search", p)) or find(p, graph))
    monkeypatch.setattr(
        matching, "_all_embeddings", lambda p, graph: runs.append(("enumerate", p)) or enumerate_all(p, graph)
    )
    monkeypatch.setattr(matching, "MAX_SEARCH_STEPS", 3)
    assert decided([party()]) == reference
    assert runs[0] == ("enumerate", coarser) and ("search", later) not in runs
    faults = []
    for grouped in (True, False):
        del runs[:]
        with monkeypatch.context() as m:
            m.setattr(matching, "MAX_SEARCH_STEPS", 0)
            if not grouped:
                m.setattr(matching, "_all_embeddings", lambda p, graph: None)
            with pytest.raises(StageError) as err:
                decided([party()])
        assert runs == ([("enumerate", coarser)] if grouped else []) + [("search", later)]
        faults.append((err.value.stage, type(err.value.cause), str(err.value.cause)))
    assert faults == [("policy-evaluation", SearchLimitError, "partition search gave up after 0 steps")] * 2


def test_every_seed_0_rows_f3_decision_takes_2_searches_1_enumeration_and_1_grading_per_group(monkeypatch):
    """Counts, not timings, pin the grading route on the benchmark's rows_f3 workload.

    Each decision enumerates its groups' one coarser partition and grades
    each party's group of 25 constrained partitions against it in one pass,
    4 in all. Neither of its 2 searches is of a constrained partition, so no
    leaf of a group is searched alone.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "decidebench"))
    import workloads

    loaded = workloads.load(workloads.rows_f3(0))
    runs = []
    find, enumerate_all, held = matching._find_embedding, matching._all_embeddings, matching._Grader.held
    monkeypatch.setattr(matching, "_find_embedding", lambda p, graph: runs.append(("search", p)) or find(p, graph))
    monkeypatch.setattr(
        matching, "_all_embeddings", lambda p, graph: runs.append(("enumerate", p)) or enumerate_all(p, graph)
    )
    monkeypatch.setattr(matching._Grader, "held", lambda group, rows: runs.append(("grade", group)) or held(group, rows))
    assert len(loaded.records) == 200
    for record, request in zip(loaded.records, loaded.requests):
        del runs[:]
        decide(record, request, loaded.parties, loaded.external, loaded.pg, loaded.role_order)
        assert Counter(kind for kind, _ in runs) == {"search": 2, "enumerate": 1, "grade": 4}
        assert sorted(len(group.members) for kind, group in runs if kind == "grade") == [25] * 4
        assert not any(v.constraints for kind, p in runs if kind == "search" for v in p.vertices)


#: What one pass over every seed-0 record of each benchmark workload does, first and warm alike;
#: `payload` counts the payloads read, and a count of 0 is left out.
PASS_WORK = {
    "rows_f3": {"search": 400, "enumerate": 200, "grade": 800, "eval_atomic": 200, "payload": 400},
    "deep_lineage": {"search": 1152, "match_path": 208, "eval_atomic": 520, "payload": 14186},
    "party_algebra": {"search": 120, "eval_atomic": 240},
}


@pytest.mark.parametrize("workload", sorted(PASS_WORK))
def test_a_seed_0_pass_over_a_workload_does_the_pinned_matching_work(workload, monkeypatch):
    """Counts, not timings, pin each workload's leaf layer: searches, enumerations, gradings, path walks, atomic evaluations, payload reads.

    A warm pass, whose plans answer every key met before, does the first
    pass's work, since each decision matches its leaves before it reads a
    key. Guard checks are not counted: a plan keeps each guard mask it
    derives, so a warm pass runs fewer of them, or none.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "decidebench"))
    import workloads

    loaded = workloads.load(workloads.WORKLOADS[workload](0))
    runs = Counter()
    find, enumerate_all, held = matching._find_embedding, matching._all_embeddings, matching._Grader.held
    path, atomic = policy.match_path, policy.eval_atomic
    monkeypatch.setattr(matching, "_find_embedding", lambda p, graph: runs.update(["search"]) or find(p, graph))
    monkeypatch.setattr(matching, "_all_embeddings", lambda p, graph: runs.update(["enumerate"]) or enumerate_all(p, graph))
    monkeypatch.setattr(matching._Grader, "held", lambda group, rows: runs.update(["grade"]) or held(group, rows))
    monkeypatch.setattr(policy, "match_path", lambda *args: runs.update(["match_path"]) or path(*args))
    monkeypatch.setattr(policy, "eval_atomic", lambda *args: runs.update(["eval_atomic"]) or atomic(*args))
    payload = ProvenanceGraph._payload
    monkeypatch.setattr(ProvenanceGraph, "_payload", lambda graph, vid: runs.update(["payload"]) or payload(graph, vid))
    passes = []
    for _ in range(2):
        runs.clear()
        for record, request in zip(loaded.records, loaded.requests):
            decide(record, request, loaded.parties, loaded.external, loaded.pg, loaded.role_order)
        passes.append(dict(runs))
    assert passes == [PASS_WORK[workload]] * 2


@pytest.mark.parametrize("floors, held", [((1, 2, 3), 0b111), ((1, 9, 3), 0b101), ((7, 8, 9), 0)])
def test_a_group_graded_and_a_group_matched_alone_pack_one_key(floors, held, tiny_graph, monkeypatch):
    """The report has size 4, so the partitions asking for ``size > floor`` hold where the floor is under 4.

    The party's leaves are the first partition, a vertex condition, then the
    other two, so its steps are the group, then the vertex. Where every
    partition is matched alone, after an enumeration of too many steps,
    the values pack into the key that grading gives: a held bit per
    partition, then NAMES for the rest, even where every partition holds.
    """
    parts = [AttrCondition(VertexType.ARTIFACT, "report", "size", Predicate.GT, f).partition for f in floors]
    vertex = VertexCondition(VertexType.PROCESS, "ingest")
    trees = [TreeLeaf(parts[0]), TreeLeaf(vertex), TreeBranch(TreeOp.OR, (TreeLeaf(parts[1]), TreeLeaf(parts[2])))]
    pg = PurposeGraph(["root", "a"], [("root", "a")], hierarchy_line=0)

    def keys():
        cfg = PartyConfig("p", tuple(Policy(f"q{i}", 1, tree, ap={"a"}) for i, tree in enumerate(trees)))
        decide(DataRecord(tiny_graph), Request("s"), [cfg], "F3", pg)
        assert [type(step) for step in cfg._steps] == [matching._Grader, VertexCondition]
        return list(cfg._plan(pg).outcomes)

    graded = keys()
    with monkeypatch.context() as m:
        m.setattr(matching, "_all_embeddings", lambda p, graph: None)
        assert keys() == graded
    assert graded == [(0b111, (held << 2 | MatchValue.NAMES) << 2 | MatchValue.FULL)]  # every guard passes


def test_a_party_holding_a_grouped_partition_alone_searches_it_once_the_groups_key_is_met(tiny_graph, monkeypatch):
    """Party `grouped` holds three attribute partitions of the report, one group; party `lone` holds two of them.

    `lone` holds one as a partition leaf and one through an attribute
    condition, and has no group of its own. In the first decision
    `grouped`'s outcome key is new, so its graded values are settled into
    the memo, and `lone` reads them and searches none. From the second on,
    that key is met before and nothing is settled; :func:`match_partition`
    only searches, so `lone` searches both, once per decision. Every
    decision is the oracle's.
    """
    report = VertexType.ARTIFACT, "report"  # size 4, format pdf
    conds = [
        AttrCondition(*report, "size", Predicate.GT, 2),
        AttrCondition(*report, "size", Predicate.LT, 4),
        AttrCondition(*report, "fmt", Predicate.EQ, "pdf"),
    ]
    parts = [c.partition for c in conds]
    purposes, edges = ["root", "a", "b"], [("root", "a"), ("root", "b")]
    pg = PurposeGraph(purposes, edges, hierarchy_line=0)
    grouped = tuple(Policy(f"g{i}", 1, TreeLeaf(p), ap={"a"}) for i, p in enumerate(parts))
    lone = (Policy("l0", 1, TreeLeaf(parts[1]), ap={"b"}), Policy("l1", 1, TreeLeaf(conds[2]), ap={"a", "b"}))
    configs = [PartyConfig("grouped", grouped), PartyConfig("lone", lone)]
    assert len(party_groups(configs[0])) == 3 and party_groups(configs[1]) == {}
    searched = []
    find = matching._find_embedding
    monkeypatch.setattr(matching, "_find_embedding", lambda p, graph: searched.append(p) or find(p, graph))
    decided, results = oracle_decide(
        tiny_graph, None, "s", None, [(cfg.party, cfg.policies, None) for cfg in configs], "F3", purposes, edges, 0
    )
    per_decision = []
    for _ in range(3):
        del searched[:]
        outcome = decide(DataRecord(tiny_graph), Request("s"), configs, "F3", pg)
        assert outcome.decided == decided and [(t.result.ap, t.result.pp) for t in outcome.parties] == results
        assert [d["tree_value"] for d in outcome_to_dict(outcome)["parties"][1]["policies"]] == ["names-only", "full"]
        per_decision.append(list(searched))
    assert per_decision == [[], [parts[1], parts[2]], [parts[1], parts[2]]]


def test_a_payload_written_between_decisions_is_read_by_the_next():
    """A payload written in place, then a later bundle added by `add_edge`, each changes the next decision.

    Two long-lived parties hold three partitions of one coarser partition, in
    two orders, so each decision grades the group of each.
    """
    g = ProvenanceGraph()
    art, run = g.add_vertex(VertexType.ARTIFACT, "row", {"k": 1}), g.add_vertex(VertexType.PROCESS, "run")
    g.add_edge(art, run, EdgeLabel.WAS_GENERATED_BY)

    def at_least(k):
        return ProvenancePartition(
            (
                PatternVertex("a", VertexType.ARTIFACT, None, (AttrConstraint("k", Predicate.GEQ, k),)),
                PatternVertex("p", VertexType.PROCESS, "run"),
            ),
            (PatternEdge("a", "p", EdgeLabel.WAS_GENERATED_BY),),
        )

    parts = [at_least(k) for k in (1, 2, 3)]
    pg = PurposeGraph(["root", "p1", "p2", "p3"], [("root", "p1"), ("root", "p2"), ("root", "p3")], hierarchy_line=0)
    parties = [
        PartyConfig(name, tuple(Policy(f"k{k}", 1, TreeLeaf(parts[k - 1]), ap={f"p{k}"}) for k in order))
        for name, order in (("up", (1, 2, 3)), ("down", (3, 2, 1)))
    ]

    def held():
        outcome = decide(DataRecord(g), Request("s"), parties, "F3", pg)
        rows = [{d["id"]: d["tree_value"] for d in party["policies"]} for party in outcome_to_dict(outcome)["parties"]]
        assert rows[0] == rows[1]
        return [rows[0][f"k{k}"] for k in (1, 2, 3)]

    assert held() == ["full", "names-only", "names-only"]
    g.vertex(f"{art}:att").attrs["k"] = 2  # written in place
    assert held() == ["full", "full", "names-only"]
    bundle = g.add_vertex(VertexType.ATTRIBUTE, "later", {"k": 3})
    g.add_edge(art, bundle, EdgeLabel.HAS_ATTRIBUTES)  # the later bundle wins
    assert held() == ["full", "full", "full"]
    g.vertex(bundle).attrs["k"] = 0
    assert held() == ["names-only"] * 3


def _write(rng, graph):
    """Add a vertex named as the cases' vertex leaves name them, or an edge between two vertices, to `graph`."""
    ids = list(graph.vertices)
    if len(ids) < 2 or rng.random() < 0.5:
        graph.add_vertex(rng.choice((VertexType.AGENT, VertexType.ARTIFACT, VertexType.PROCESS)), rng.choice("abc"))
    else:
        graph.add_edge(*rng.sample(ids, 2), EdgeLabel.WAS_DERIVED_FROM)


def test_long_lived_configs_decide_as_fresh_ones_and_their_traces_outlive_a_graph_write():
    """Decide on long-lived configs, maybe write to the graph, then read every trace and pickle the outcome.

    A trace is complete when `decide` returns, so a write after it changes
    no trace: every outcome renders as fresh configs decided it before the
    write, its decided set and party results are the oracle's, and its
    pickled copy renders and compares equal. Later requests decide the
    written graphs.
    """
    written = 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        nonlocal written
        rng = random.Random(seed)
        case = random_decision_case(rng)
        if rng.random() < 0.5:
            case = with_shared_shapes(rng, case)
        pg = PurposeGraph(case.purposes, case.edges, hierarchy_line=case.line)
        external = case.external if isinstance(case.external, str) else _text(case.external)

        def configs():
            return [PartyConfig(name, policies, None if expr is None else _text(expr)) for name, policies, expr in case.parties]

        kept = configs()
        for record, request in repeated_requests(rng, case, 8):
            fresh = _rendered_or_error(lambda: decide(record, request, configs(), external, pg, case.role_order))
            asked = case._replace(graph=record.provenance, category=record.category, subject=request.subject)
            expected = oracle_decide(**asked._asdict())
            try:
                outcome = decide(record, request, kept, external, pg, case.role_order)
            except StageError as exc:
                assert fresh == (exc.stage, type(exc.cause), str(exc.cause))
                continue
            if rng.random() < 0.3:
                _write(rng, record.provenance)
                written += 1
            got = _rendered_or_error(lambda: outcome)
            assert got == fresh
            decided, results = expected
            assert outcome.decided == decided
            assert [(t.result.ap, t.result.pp) for t in outcome.parties] == results
            back = pickle.loads(pickle.dumps(outcome))
            assert back == outcome and _rendered_or_error(lambda: back) == got

    check()
    assert written


def test_warm_cross_party_merges_decide_as_the_oracle_and_as_fresh_configs():
    """Ranked (F5-F8) and infix cross-party expressions, answered from warm maps.

    Half the cases' expressions are drawn from F5-F8 and the infix
    operators, which rank or subtract one party's sets against another's, so
    masks answered in the wrong slots would differ. One set of configs
    decides a stream of requests twice, so the parties' result masks repeat
    and the second pass reads the program's map: it runs the program only
    where the first pass raised in the external merge. Every rendering, or
    error, must equal that of fresh configs under a fresh purpose graph,
    which owns an empty map, and every decided set and party result the
    oracle's.
    """
    expressions = []

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        case = (random_prohibiting_case if rng.random() < 0.5 else random_decision_case)(rng)
        if rng.random() < 0.5:
            names = [name for name, _, _ in case.parties]
            case = case._replace(external=_random_expr_tree(rng, names, _RANKED_EXTERNAL_FUNCTIONS, rng.randint(2, 5)))
        external = case.external if isinstance(case.external, str) else _text(case.external)
        expressions.append(not isinstance(case.external, str))
        pg = PurposeGraph(case.purposes, case.edges, hierarchy_line=case.line)

        def configs():
            return [PartyConfig(name, policies, None if expr is None else _text(expr)) for name, policies, expr in case.parties]

        kept, requests = configs(), repeated_requests(rng, case, 8)
        first = [_rendered_or_error(lambda: decide(r, q, kept, external, pg, case.role_order)) for r, q in requests]
        runs, run = [], external_module.eval_fida
        with pytest.MonkeyPatch.context() as m:
            m.setattr(external_module, "eval_fida", lambda *args: runs.append(args) or run(*args))
            second = [_rendered_or_error(lambda: decide(r, q, kept, external, pg, case.role_order)) for r, q in requests]
        assert second == first
        assert len(runs) == sum(1 for got in first if isinstance(got, tuple) and got[0] == "external-merge")
        fresh_pg = PurposeGraph(case.purposes, case.edges, hierarchy_line=case.line)
        for (record, request), warm in zip(requests, second):
            assert warm == _rendered_or_error(lambda: decide(record, request, configs(), external, fresh_pg, case.role_order))
            if isinstance(warm, str):
                asked = case._replace(graph=record.provenance, category=record.category, subject=request.subject)
                decided, results = oracle_decide(**asked._asdict())
                rendered = json.loads(warm)
                assert rendered["decided"] == sorted(decided)
                assert [(t["ap"], t["pp"]) for t in rendered["parties"]] == [(sorted(a), sorted(p)) for a, p in results]

    check()
    assert any(expressions) and not all(expressions)


def test_seed_0_party_algebra_runs_its_cross_party_program_12_times_then_none(monkeypatch):
    """Counts, not timings, pin the cross-party map on the benchmark's party_algebra workload.

    Its 120 records meet 12 tuples of party result masks, so the first pass
    runs the compiled program 12 times and a second pass runs it not at all.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "decidebench"))
    import workloads

    loaded = workloads.load(workloads.party_algebra(0))
    runs = []
    run = external_module.eval_fida
    monkeypatch.setattr(external_module, "eval_fida", lambda *args: runs.append(args) or run(*args))
    assert len(loaded.records) == 120
    for expected in (12, 0):
        del runs[:]
        for record, request in zip(loaded.records, loaded.requests):
            decide(record, request, loaded.parties, loaded.external, loaded.pg, loaded.role_order)
        assert len(runs) == expected
