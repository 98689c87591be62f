"""Cross-party merge functions and the party-level expression mode."""

import random

import pytest

from provpurpose import (
    ConfigurationError,
    EmptyPurposeSetError,
    ExternalFunction,
    FidaSyntaxError,
    InputFormatError,
    PartyResult,
    UnboundNameError,
    apply_external,
    merge_parties,
    party_result_from_dict,
    party_result_to_dict,
)
from conftest import ALGEBRA_EDGES, ALGEBRA_PURPOSES
from oracles import brute_force_ranks, oracle_external


def _pr(party, ap=(), pp=()):
    return PartyResult(party, frozenset(ap), frozenset(pp))


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
    for fn in (
        ExternalFunction.F5,
        ExternalFunction.F6,
        ExternalFunction.F7,
        ExternalFunction.F8,
    ):
        with pytest.raises(ConfigurationError):
            apply_external(fn, sm, sn)


def test_ranked_functions_on_dag(algebra_dag):
    sm = _pr("m", ap={"high1"}, pp={"low1"})
    sn = _pr("n", ap={"low2"}, pp={"high2"})
    # F7: allowed side keeps the higher operand whole; neither prohibition
    # overlaps it, so it survives the final subtraction.
    assert apply_external(ExternalFunction.F7, sm, sn, algebra_dag) == {"high1"}
    # F8: allowed side keeps the deeper operand; prohibited intersection is
    # empty, so the deep set passes through.
    assert apply_external(ExternalFunction.F8, sm, sn, algebra_dag) == {"low2"}
    # F6: symmetric difference of allowances; the higher prohibition operand
    # ({high2}) wins but overlaps nothing.
    assert apply_external(ExternalFunction.F6, sm, sn, algebra_dag) == {"high1", "low2"}


def test_external_functions_match_oracle_samples(algebra_dag):
    ranks = brute_force_ranks(ALGEBRA_PURPOSES, ALGEBRA_EDGES)
    universe = sorted(ALGEBRA_PURPOSES)
    rng = random.Random(21)
    for _ in range(150):
        ap_m = frozenset(p for p in universe if rng.random() < 0.4)
        pp_m = frozenset(p for p in universe if rng.random() < 0.3)
        ap_n = frozenset(p for p in universe if rng.random() < 0.4)
        pp_n = frozenset(p for p in universe if rng.random() < 0.3)
        sm, sn = PartyResult("m", ap_m, pp_m), PartyResult("n", ap_n, pp_n)
        for fn in ExternalFunction:
            want = oracle_external(fn.value, ap_m, pp_m, ap_n, pp_n, universe, ranks)
            assert apply_external(fn, sm, sn, algebra_dag) == want, fn.value


# -- merge_parties -----------------------------------------------------------------

def test_bare_name_folds_left_to_right():
    a = _pr("a", ap={"x", "y"}, pp={"z"})
    b = _pr("b", ap={"y", "z"}, pp={"w"})
    c = _pr("c", ap={"y"}, pp=set())
    step1 = apply_external(ExternalFunction.F3, a, b)
    folded = apply_external(
        ExternalFunction.F3, PartyResult("", step1, frozenset()), c
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
        ExternalFunction.F3, PartyResult("", inner, frozenset()), c
    )
    assert merge_parties([a, b, c], "F3(F1(a, b), c)") == outer


def test_precedence_inside_party_expression(algebra_dag):
    a = _pr("a", ap={"high1"})
    b = _pr("b", ap={"low2"})
    assert merge_parties([a, b], "a upmax b", algebra_dag) == {"high1"}
    with pytest.raises(ConfigurationError):
        merge_parties([a, b], "a upmax b")


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
