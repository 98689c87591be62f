"""Cross-party merge functions and the party-level expression mode."""

import gc
import random
import weakref
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from provpurpose import (
    BasicOp,
    ConfigurationError,
    EmptyPurposeSetError,
    ExternalFunction,
    FidaSyntaxError,
    InputFormatError,
    PartyResult,
    ProvPurposeError,
    PurposeGraph,
    UnboundNameError,
    UnknownPurposeError,
    apply_external,
    merge_parties,
    party_result_from_dict,
    party_result_to_dict,
)
from provpurpose import external
from provpurpose.external import _party_program
from provpurpose.purposes import _BoundedMap
from conftest import ALGEBRA_EDGES, ALGEBRA_PURPOSES
from oracles import _o_external_expr, _o_left_fold, brute_force_ranks, o_minus, oracle_external


def _pr(party, ap=(), pp=()):
    return PartyResult(party, frozenset(ap), frozenset(pp))


def _result_or_error(evaluate):
    try:
        return evaluate()
    except ProvPurposeError as exc:
        return type(exc), str(exc)


def test_intended_view_subtracts_prohibitions():
    r = _pr("m", ap={"a", "b"}, pp={"b", "c"})
    assert r.intended() == {"a"}


def test_f3_shared_allowance_only():
    sm = _pr("m", ap={"education", "research"}, pp={"audit"})
    sn = _pr("n", ap={"education", "analysis"}, pp={"research"})
    assert apply_external(ExternalFunction.F3, sm, sn) == {"education"}


def test_f1_vs_f2_on_same_operands():
    # Both parties prohibit "a": F1 keeps that prohibition, F2 cancels it.
    sm = _pr("m", ap={"a"}, pp={"a", "x"})
    sn = _pr("n", ap={"b"}, pp={"a"})
    assert apply_external(ExternalFunction.F1, sm, sn) == {"b"}
    assert apply_external(ExternalFunction.F2, sm, sn) == {"a", "b"}


def test_ranked_functions_need_graph():
    sm = _pr("m", ap={"high1"}, pp={"low1"})
    sn = _pr("n", ap={"high2"}, pp={"low2"})
    empty = _pr("e")
    for fn in (
        ExternalFunction.F5,
        ExternalFunction.F6,
        ExternalFunction.F7,
        ExternalFunction.F8,
    ):
        for pair in ((sm, sn), (sm, empty), (empty, sn)):
            with pytest.raises(ConfigurationError):
                apply_external(fn, *pair)


def _unknown(name):
    return UnknownPurposeError, f"unknown purpose {name!r}"


_M, _N = ({"high1"}, {"low1"}), ({"low2"}, {"high2"})


@pytest.mark.parametrize(
    "fn, m, n, want",
    [
        # F7: allowed side keeps the higher operand whole; neither prohibition
        # overlaps it, so it survives the final subtraction.
        ("F7", _M, _N, {"high1"}),
        # F8: allowed side keeps the deeper operand; prohibited intersection is
        # empty, so the deep set passes through.
        ("F8", _M, _N, {"low2"}),
        # F6: symmetric difference of allowances; the higher prohibition operand
        # ({high2}) wins but overlaps nothing.
        ("F6", _M, _N, {"high1", "low2"}),
        # Purposes the graph lacks raise in the ranked side alone, the allowed
        # side of F7 and F8 and the prohibited side of F5 and F6, once both its
        # operands are non-empty: the smallest unknown member of the left
        # operand, else of the right.
        ("F7", ({"high1", "zeta", "omega"}, {"beta"}), ({"low1", "alpha"}, {"gamma"}), _unknown("omega")),
        ("F7", ({"high1"}, {"beta"}), ({"low1", "zeta", "alpha"}, set()), _unknown("alpha")),
        ("F8", ({"low1", "zeta"}, {"alpha"}), ({"high1", "beta"}, {"alpha"}), _unknown("zeta")),
        ("F5", ({"alpha"}, {"low1", "omega"}), ({"beta"}, {"high1", "gamma"}), _unknown("omega")),
        ("F6", ({"alpha"}, {"low1"}), ({"high1"}, {"zeta", "beta"}), _unknown("beta")),
        # An empty operand loses without a membership check.
        ("F7", (set(), {"alpha"}), ({"zeta"}, set()), {"zeta"}),
        ("F5", ({"alpha"}, {"omega"}), ({"high1"}, set()), {"alpha", "high1"}),
    ],
)
def test_ranked_functions_on_dag(algebra_dag, fn, m, n, want):
    sm, sn = _pr("m", *m), _pr("n", *n)
    got = _result_or_error(lambda: apply_external(ExternalFunction(fn), sm, sn, algebra_dag))
    assert got == (want if isinstance(want, tuple) else frozenset(want))
    assert _result_or_error(lambda: merge_parties([sm, sn], fn, algebra_dag)) == got


# The side of each ranked function that compares ranks; F1-F4 rank none.
_RANKED_SIDE = {"F5": "pp", "F6": "pp", "F7": "ap", "F8": "ap"}


def _ranked_side_fault(fn, sm, sn):
    """The error an F-function raises over purposes the graph lacks, or None."""
    side = _RANKED_SIDE.get(fn.value)
    operands = (getattr(sm, side), getattr(sn, side)) if side else ()
    if not all(operands):
        return None
    unknown = [min(s - set(ALGEBRA_PURPOSES)) for s in operands if s - set(ALGEBRA_PURPOSES)]
    return _unknown(unknown[0]) if unknown else None


@pytest.mark.parametrize("strangers", [(), ("alpha", "omega")], ids=["graph purposes", "with purposes the graph lacks"])
def test_external_functions_match_oracle_samples(algebra_dag, strangers):
    """`apply_external` and `merge_parties` over the two parties agree with the
    oracle, and with each other on the error raised; "alpha" sorts before every
    graph purpose and "omega" among them."""
    ranks = brute_force_ranks(ALGEBRA_PURPOSES, ALGEBRA_EDGES)
    universe = sorted(ALGEBRA_PURPOSES) + list(strangers)
    rng = random.Random(21)
    for _ in range(150):
        ap_m = frozenset(p for p in universe if rng.random() < 0.4)
        pp_m = frozenset(p for p in universe if rng.random() < 0.3)
        ap_n = frozenset(p for p in universe if rng.random() < 0.4)
        pp_n = frozenset(p for p in universe if rng.random() < 0.3)
        sm, sn = PartyResult("m", ap_m, pp_m), PartyResult("n", ap_n, pp_n)
        for fn in ExternalFunction:
            want = _ranked_side_fault(fn, sm, sn) or oracle_external(fn.value, ap_m, pp_m, ap_n, pp_n, universe, ranks)
            got = _result_or_error(lambda: apply_external(fn, sm, sn, algebra_dag))
            assert got == want, fn.value
            assert _result_or_error(lambda: merge_parties([sm, sn], fn.value, algebra_dag)) == got, fn.value


# -- merge_parties -----------------------------------------------------------------

def test_bare_name_folds_left_to_right():
    a = _pr("a", ap={"x", "y"}, pp={"z"})
    b = _pr("b", ap={"y", "z"}, pp={"w"})
    c = _pr("c", ap={"y"}, pp=set())
    step1 = apply_external(ExternalFunction.F3, a, b)
    folded = apply_external(
        ExternalFunction.F3, PartyResult("F3(a, b)", step1, frozenset()), c
    )
    assert merge_parties([a, b, c], "F3") == folded
    assert merge_parties([a, b, c], "F3(F3(a, b), c)") == folded


def test_bare_name_rejects_duplicate_party_names():
    with pytest.raises(ConfigurationError):
        merge_parties([_pr("a", ap={"x"}), _pr("a", ap={"x", "y"})], "F3")


def test_single_party_returns_intended():
    only = _pr("solo", ap={"x", "y"}, pp={"y"})
    assert merge_parties([only], "F3") == {"x"}
    assert merge_parties([only], "F6") == {"x"}


def test_no_parties_is_an_error():
    with pytest.raises(EmptyPurposeSetError):
        merge_parties([], "F3")


def test_party_masks_need_the_purpose_graph_that_encodes_them():
    with pytest.raises(EmptyPurposeSetError):
        merge_parties({}, "F3")
    with pytest.raises(ConfigurationError, match="^party result masks need the purpose graph that encodes them$"):
        merge_parties({"a": (1, 0), "b": (1, 0)}, "F3")


def _masks_and_results(pg):
    results = [_pr("m", ap={"root", "low1"}, pp={"low2"}), _pr("n", ap={"high1", "low2"})]
    return {r.party: (pg.bits.encode(r.ap), pg.bits.encode(r.pp)) for r in results}, results


@pytest.mark.parametrize("text", ["F3", "F5(m + n, n)", "F5(m, n) upmax n"])
def test_party_masks_in_any_mapping_merge_as_in_a_dict(text, algebra_dag):
    masks, results = _masks_and_results(algebra_dag)
    expected = merge_parties(masks, text, algebra_dag)
    assert expected == merge_parties(results, text, algebra_dag)
    assert merge_parties(MappingProxyType(masks), text, algebra_dag) == expected


@pytest.mark.parametrize("text", ["F3", "F5(m + n, n)", "F5(m, n) upmax n"])
def test_party_results_in_any_sequence_merge_as_in_a_list(text, algebra_dag):
    masks, results = _masks_and_results(algebra_dag)
    expected = merge_parties(results, text, algebra_dag)
    assert expected == merge_parties(masks, text, algebra_dag)
    assert merge_parties(tuple(results), text, algebra_dag) == expected


def test_expression_mode_binds_party_names():
    a = _pr("source", ap={"education", "research"}, pp={"audit"})
    b = _pr("repo", ap={"education", "analysis"}, pp={"research"})
    got = merge_parties([a, b], "F3(source, repo)")
    assert got == {"education"}
    # function results feed infix operators as prohibition-free parties
    got = merge_parties([a, b], "F3(source, repo) + F4(source, repo)")
    assert got == {"education"}


def test_expression_mode_party_under_infix_uses_intended():
    a = _pr("a", ap={"x", "y"}, pp={"y"})
    b = _pr("b", ap={"y"}, pp=set())
    assert merge_parties([a, b], "a + b") == {"x", "y"}
    assert merge_parties([a, b], "a & b") == frozenset()


def test_expression_mode_rejects_duplicate_party_names():
    with pytest.raises(ConfigurationError):
        merge_parties([_pr("a", ap={"x"}), _pr("a", ap={"y"})], "a + a")


def test_expression_mode_unknown_party_and_function():
    a = _pr("a", ap={"x"})
    with pytest.raises(UnboundNameError):
        merge_parties([a], "ghost")
    with pytest.raises(UnboundNameError):
        merge_parties([a], "F99(a, a)")
    with pytest.raises(FidaSyntaxError):
        merge_parties([a], "F3(a)")


def test_expression_over_an_infix_chain_of_1200_parties():
    parties = [_pr("p0", ap={"x"}, pp={"x"})]
    parties += [_pr(f"p{i}", ap={f"a{i % 5}"}) for i in range(1, 1200)]
    text = " + ".join(p.party for p in parties)
    assert merge_parties(parties, text) == {f"a{i}" for i in range(5)}


def test_nested_function_calls(algebra_dag):
    a = _pr("a", ap={"high1"}, pp={"low1"})
    b = _pr("b", ap={"high1", "low2"}, pp=set())
    c = _pr("c", ap={"high1"}, pp=set())
    inner = apply_external(ExternalFunction.F1, a, b)
    outer = apply_external(
        ExternalFunction.F3, PartyResult("F1(a, b)", inner, frozenset()), c
    )
    assert merge_parties([a, b, c], "F3(F1(a, b), c)") == outer


def test_precedence_inside_party_expression(algebra_dag):
    a = _pr("a", ap={"high1"})
    b = _pr("b", ap={"low2"})
    assert merge_parties([a, b], "a upmax b", algebra_dag) == {"high1"}
    with pytest.raises(ConfigurationError):
        merge_parties([a, b], "a upmax b")


_ERRORS_IN_ORDER = [
    ("ghost", UnboundNameError, "no party named 'ghost'"),
    ("F99(a, b)", UnboundNameError, "unknown cross-party function 'F99'"),
    ("F99(ghost, b)", UnboundNameError, "no party named 'ghost'"),
    ("F3(a)", FidaSyntaxError, "F3 takes exactly two operands"),
    ("F3(a, b, ghost)", UnboundNameError, "no party named 'ghost'"),
    ("F3(a) + ghost", FidaSyntaxError, "F3 takes exactly two operands"),
    ("F1(a, b) upmax ghost", UnboundNameError, "no party named 'ghost'"),
    ("F1(a, ghost) + F99(a, b)", UnboundNameError, "no party named 'ghost'"),
    ("F99(a, b) + F3(a)", UnboundNameError, "unknown cross-party function 'F99'"),
    ("F3(F3(a), F99(a, b))", FidaSyntaxError, "F3 takes exactly two operands"),
]


@pytest.mark.parametrize("text, error, message", _ERRORS_IN_ORDER)
def test_the_first_fault_met_raises_over_masks_and_over_sets(algebra_dag, text, error, message):
    """Operands are evaluated left to right before the function or operator that takes them."""
    parties = [_pr("a", ap={"high1"}, pp={"low1"}), _pr("b", ap={"low2"})]
    bits = algebra_dag.bits
    masks = {p.party: (bits.encode(p.ap), bits.encode(p.pp)) for p in parties}
    for results, pg in ((masks, algebra_dag), (parties, algebra_dag), (parties, None)):
        with pytest.raises(error) as caught:
            merge_parties(results, text, pg)
        assert str(caught.value) == message


@pytest.mark.parametrize("fn", ["F5", "F6", "F7", "F8"])
@pytest.mark.parametrize("text", ["{}", "{}(a, b)", "a + {}(a, b)"])
def test_ranked_functions_without_a_graph_raise_even_over_empty_parties(fn, text):
    with pytest.raises(ConfigurationError, match="^precedence operators need a purpose graph$"):
        merge_parties([_pr("a"), _pr("b")], text.format(fn))


def _layered(seed, width, depth):
    """`depth` rank layers of `width` purposes; each below layer 0 has one or two parents just above."""
    rng = random.Random(seed)
    layers = [[f"w{k}_{i:02d}" for i in range(width)] for k in range(depth)]
    edges = [
        (parent, child)
        for upper, lower in zip(layers, layers[1:])
        for child in lower
        for parent in rng.sample(upper, rng.randint(1, 2))
    ]
    return [p for layer in layers for p in layer], edges


# 120 purposes: masks span two machine words, and 24 purposes share each rank.
_WIDE_PURPOSES, _WIDE_EDGES = _layered(5, 24, 5)
_WIDE = PurposeGraph(_WIDE_PURPOSES, _WIDE_EDGES, hierarchy_line=2)
_WIDE_RANKS = brute_force_ranks(_WIDE_PURPOSES, _WIDE_EDGES)
_PARTIES = ("a", "b", "c", "d")
_FUNCTIONS = tuple(fn.value for fn in ExternalFunction)

# Oracle trees: ("ref", party), ("call", function, (left, right)) or ("op", operator, left, right).
_party_trees = st.recursive(
    st.sampled_from(_PARTIES).map(lambda name: ("ref", name)),
    lambda children: st.one_of(
        st.tuples(st.just("call"), st.sampled_from(_FUNCTIONS), st.tuples(children, children)),
        st.tuples(st.just("op"), st.sampled_from([op.value for op in BasicOp]), children, children),
    ),
    max_leaves=6,
)


def _text(tree):
    if tree[0] == "ref":
        return tree[1]
    if tree[0] == "call":
        return f"{tree[1]}({', '.join(map(_text, tree[2]))})"
    return f"({_text(tree[2])} {tree[1]} {_text(tree[3])})"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_compiled_merge_over_masks_and_over_sets_matches_the_oracle(data):
    """Bare function names, nested calls and infix operators over parties, on a graph
    whose ranks tie 24 ways; either side of a party may be empty."""
    side = st.one_of(st.just(frozenset()), st.frozensets(st.sampled_from(_WIDE_PURPOSES), max_size=30))
    env = {name: (data.draw(side), data.draw(side)) for name in _PARTIES}
    tree = data.draw(st.one_of(_party_trees, st.sampled_from(_FUNCTIONS)))
    if isinstance(tree, str):
        text, tree = tree, _o_left_fold(tree, list(_PARTIES))
    else:
        text = _text(tree)
    universe = frozenset(_WIDE_PURPOSES)
    want = o_minus(universe, *_o_external_expr(tree, env, universe, _WIDE_RANKS))
    bits = _WIDE.bits
    masks = {name: (bits.encode(ap), bits.encode(pp)) for name, (ap, pp) in env.items()}
    assert merge_parties(masks, text, _WIDE) == want
    assert merge_parties([PartyResult(name, *pair) for name, pair in env.items()], text, _WIDE) == want


# -- the decided sets kept per program and purpose graph ----------------------------

def _counted_runs(monkeypatch):
    """Record each run of a compiled cross-party program over masks."""
    runs = []
    run = external.eval_fida
    monkeypatch.setattr(external, "eval_fida", lambda program, env, pg=None: runs.append(env) or run(program, env, pg))
    return runs


def _flat(n):
    """A purpose graph of `n` unrelated purposes, so mask k holds the purposes of k's bits."""
    return PurposeGraph([f"p{i}" for i in range(n)], [], hierarchy_line=0)


def test_masks_met_before_run_no_step_and_the_map_stops_at_its_bound(monkeypatch):
    """Past the bound, later masks are run on every call and not stored, with the same sets."""
    bound = _BoundedMap.bound
    n = bound.bit_length()  # 2**n mask tuples, more than the bound
    pg, runs = _flat(n), _counted_runs(monkeypatch)
    tuples = [{"a": (k, 0), "b": (0, 0)} for k in range(2**n)]
    first, second = ([merge_parties(masks, "F1", pg) for masks in tuples] for _ in range(2))
    assert first == second == [pg.bits.decode(k) for k in range(2**n)]
    decided = _party_program("F1", ("a", "b"))[1][pg]
    assert list(decided) == [((k, 0), (0, 0)) for k in range(bound)]
    # below the bound the second pass returns the very sets the first stored; past it, sets decoded anew
    assert all(decided[((k, 0), (0, 0))] is first[k] is second[k] for k in range(bound))
    assert not any(second[k] is first[k] for k in range(bound, 2**n))
    # the first pass ran every tuple; the second only those past the bound
    assert runs == [tuple(masks.values()) for masks in tuples + tuples[bound:]]


@pytest.mark.parametrize("full", [False, True])
def test_a_run_that_raises_is_not_stored_and_raises_alike_in_an_empty_or_full_map(monkeypatch, full):
    n = _BoundedMap.bound.bit_length()
    pg = _flat(n)
    if full:
        for k in range(_BoundedMap.bound):
            merge_parties({"a": (k, 0), "b": (0, 0)}, "F1", pg)
    decided = _party_program("F1", ("a", "b"))[1].get(pg, {})
    assert len(decided) == (_BoundedMap.bound if full else 0)
    runs = _counted_runs(monkeypatch)
    past = {"a": (1 << n, 0), "b": (0, 0)}  # a bit no purpose holds
    for _ in range(2):
        with pytest.raises(UnknownPurposeError, match=f"^mask {1 << n} is not a set of the {n} encoded purposes$"):
            merge_parties(past, "F1", pg)
        with pytest.raises(UnboundNameError, match="^no party named 'ghost'$"):
            merge_parties({"a": (1, 0), "b": (0, 0)}, "F1(a, ghost)", pg)
    assert len(runs) == 4 and tuple(past.values()) not in _party_program("F1", ("a", "b"))[1][pg]
    assert len(_party_program("F1(a, ghost)", ("a", "b"))[1][pg]) == 0


def test_masks_are_kept_in_slot_order():
    """Parties that swap their masks meet another tuple, so a merge that subtracts one from the other differs."""
    pg = _flat(2)
    for text, m, n, want in (
        ("a - b", (0b01, 0), (0b10, 0), ({"p0"}, {"p1"})),
        ("F2(a, b)", (0b11, 0b01), (0b10, 0), ({"p1"}, {"p0", "p1"})),
    ):
        for _ in range(2):  # the second round reads the map
            assert (merge_parties({"a": m, "b": n}, text, pg), merge_parties({"a": n, "b": m}, text, pg)) == want, text


def test_two_purpose_graphs_keep_separate_maps_under_one_program(monkeypatch):
    """Equal graphs are two owners: each keeps its own sets, and a map goes with its graph."""
    first, second = _flat(3), _flat(3)
    runs = _counted_runs(monkeypatch)
    masks = {"a": (0b011, 0b001), "b": (0b110, 0)}
    assert merge_parties(masks, "a + b", first) == merge_parties(masks, "a + b", second) == {"p1", "p2"}
    assert merge_parties(masks, "a + b", first) == {"p1", "p2"}
    assert len(runs) == 2  # one per graph; the third call is the first graph's hit
    by_graph = _party_program("a + b", ("a", "b"))[1]
    assert by_graph[first] is not by_graph[second]
    assert by_graph[first] == by_graph[second] == {((0b011, 0b001), (0b110, 0)): {"p1", "p2"}}
    gc.collect()
    kept, gone = len(by_graph), weakref.ref(first)
    del first
    gc.collect()
    assert gone() is None and len(by_graph) == kept - 1 and second in by_graph


# -- documents ----------------------------------------------------------------------

def test_party_result_round_trip():
    doc = {"party": "lab", "ap": ["b", "a"], "pp": ["c"]}
    r = party_result_from_dict(doc)
    assert r == _pr("lab", ap={"a", "b"}, pp={"c"})
    assert party_result_to_dict(r) == {"party": "lab", "ap": ["a", "b"], "pp": ["c"]}


def test_party_result_defaults_and_errors():
    r = party_result_from_dict({"ap": ["x"]}, default_party="fallback")
    assert r.party == "fallback" and r.pp == frozenset()
    with pytest.raises(InputFormatError):
        party_result_from_dict({"party": ""})
    with pytest.raises(InputFormatError):
        party_result_from_dict({"ap": "not-a-list"})
    with pytest.raises(InputFormatError):
        party_result_from_dict([])
