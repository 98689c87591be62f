"""Set operators, hierarchical merges, and the merge-expression language."""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from provpurpose import (
    BasicOp,
    BinaryOp,
    ConfigurationError,
    EmptyPurposeSetError,
    ExternalFunction,
    FidaSyntaxError,
    FunctionCall,
    HierarchicalPurposeSet,
    InputFormatError,
    InternalFunction,
    MissingHierarchyLineError,
    PrecedenceKind,
    ProvPurposeError,
    PurposeGraph,
    SetRef,
    UnboundNameError,
    UnknownPurposeError,
    apply_external,
    apply_internal,
    apply_nary,
    compile_fida,
    default_internal_expr,
    eval_fida,
    eval_fida_plain,
    expression_functions,
    expression_names,
    op_difference,
    op_intersection,
    op_precedence,
    op_subtraction,
    op_union,
    parse_fida,
    precedence_total,
    print_fida,
    split_result,
)
from provpurpose.algebra import (
    _MERGE_STEPS,
    _UNICODE_ALIASES,
    MAX_NESTING,
    _tokenize,
    _winner,
    fold,
    left_fold_expr,
)
from provpurpose.external import PartyResult, _party_program, merge_parties
from conftest import ALGEBRA_EDGES, ALGEBRA_PURPOSES, ALGEBRA_UNIVERSE
from oracles import (
    _O_SET_OPS,
    _fs_precedence_winner,
    frozenset_eval_fida,
    brute_force_ranks,
    o_precedence,
    o_precedence_total,
    oracle_internal,
    oracle_nary,
    oracle_tokenize,
    reference_eval_fida,
    reference_split_result,
)

A = frozenset({"high1", "low1"})
B = frozenset({"high1", "high2", "low2"})


def test_basic_set_operators():
    assert op_union(A, B) == {"high1", "high2", "low1", "low2"}
    assert op_intersection(A, B) == {"high1"}
    assert op_difference(A, B) == {"high2", "low1", "low2"}
    assert op_subtraction(A, B) == {"low1"}
    assert op_subtraction(B, A) == {"high2", "low2"}


def test_precedence_on_hierarchy_fixture(hierarchy):
    up = op_precedence(
        PrecedenceKind.HIGH_MAX, {"Admin", "Analysis"}, {"Record", "Audit"}, hierarchy
    )
    assert up == {"Admin", "Analysis"}
    down = op_precedence(
        PrecedenceKind.LOW_MIN, {"Study"}, {"General Purpose"}, hierarchy
    )
    assert down == {"Study"}


def test_precedence_tie_returns_union(algebra_dag):
    # side1 and high1 share rank 1, so every kind ties on singletons.
    for kind in PrecedenceKind:
        got = op_precedence(kind, {"high1"}, {"side1"}, algebra_dag)
        assert got == {"high1", "side1"}


def test_precedence_rejects_empty_operand(algebra_dag):
    with pytest.raises(EmptyPurposeSetError):
        op_precedence(PrecedenceKind.HIGH_MAX, set(), {"high1"}, algebra_dag)
    with pytest.raises(EmptyPurposeSetError):
        op_precedence(PrecedenceKind.LOW_MIN, {"high1"}, set(), algebra_dag)


def test_precedence_total_lets_empty_lose(algebra_dag):
    assert precedence_total(PrecedenceKind.HIGH_MAX, set(), {"low1"}, algebra_dag) == {"low1"}
    assert precedence_total(PrecedenceKind.LOW_MIN, {"low1"}, set(), algebra_dag) == {"low1"}
    assert precedence_total(PrecedenceKind.HIGH_MIN, set(), set(), algebra_dag) == frozenset()
    # Losing needs no rank comparison, but a selection without a graph still raises.
    for a, b in ((set(), {"low1"}), ({"low1"}, set()), (set(), set())):
        with pytest.raises(ConfigurationError):
            precedence_total(PrecedenceKind.HIGH_MAX, a, b, None)


def test_plain_operators_match_the_oracle_on_every_operand_pair(algebra_dag):
    """Every operator through `eval_fida_plain`, and each selection through `precedence_total` too."""
    ranks = brute_force_ranks(ALGEBRA_PURPOSES, ALGEBRA_EDGES)
    universe = list(ALGEBRA_UNIVERSE)
    subsets = [frozenset(c) for r in range(len(universe) + 1) for c in itertools.combinations(universe, r)]
    exprs = {op: parse_fida(f"A {op.value} B") for op in BasicOp}
    for op, a, b, pg in itertools.product(BasicOp, subsets, subsets, (algebra_dag, None)):
        routes = [lambda: eval_fida_plain(exprs[op], {"A": a, "B": b}, pg)]
        if op.value in _O_SET_OPS:
            assert routes[0]() == _O_SET_OPS[op.value](universe, a, b)
            continue
        routes.append(lambda: precedence_total(PrecedenceKind(op.value), a, b, pg))
        for evaluate in routes:
            if pg is None:
                with pytest.raises(ConfigurationError):
                    evaluate()
            else:
                assert evaluate() == o_precedence_total(op.value, a, b, ranks, universe)


def test_precedence_matches_oracle_samples(algebra_dag):
    ranks = brute_force_ranks(ALGEBRA_PURPOSES, ALGEBRA_EDGES)
    rng = random.Random(5)
    pool = sorted(algebra_dag.purposes)
    for _ in range(200):
        a = frozenset(rng.sample(pool, rng.randint(1, 4)))
        b = frozenset(rng.sample(pool, rng.randint(1, 4)))
        for kind in PrecedenceKind:
            want = o_precedence(kind.value, a, b, ranks, pool)
            assert op_precedence(kind, a, b, algebra_dag) == want


# -- hierarchical sets -------------------------------------------------------------

def test_split_result_tags_graph(algebra_dag):
    s = split_result(algebra_dag, {"high1", "low2"}, {"low1"})
    ha, hp, la, lp = _parts(s)
    assert ha == {"high1"} and la == {"low2"}
    assert hp == frozenset() and lp == {"low1"}
    assert s.graph is algebra_dag
    assert s.ap == {"high1", "low2"}
    assert s.pp == {"low1"}


def test_split_result_needs_a_hierarchy_line():
    with pytest.raises(MissingHierarchyLineError, match="^purpose graph has no hierarchy line$"):
        split_result(PurposeGraph(["a"], []), {"a"}, set())


def test_empty_hierarchical_set():
    e = HierarchicalPurposeSet()
    assert e.ap == frozenset() and e.pp == frozenset()
    assert e.graph is None


def test_graph_tag_never_affects_equality(algebra_dag):
    bare = HierarchicalPurposeSet(frozenset({"high1"}))
    tagged = HierarchicalPurposeSet(frozenset({"high1"}), graph=algebra_dag)
    assert bare == tagged


def test_merge_rejects_mixed_graphs(algebra_dag, hierarchy):
    s1 = split_result(algebra_dag, {"high1"}, set())
    s2 = split_result(hierarchy, {"Admin"}, set())
    with pytest.raises(ConfigurationError):
        apply_internal(InternalFunction.DOTPLUS, s1, s2)
    with pytest.raises(ConfigurationError):
        apply_nary([s1, s2])
    # A twin graph ranks every purpose alike, yet precedence picks neither tag.
    twin = PurposeGraph(list(ALGEBRA_PURPOSES), list(ALGEBRA_EDGES), hierarchy_line=2)
    env = {"A": s1, "B": split_result(twin, {"low2"}, set())}
    for text in ("A upmax B", "B upmax A", "A downmin B", "B downmin A"):
        with pytest.raises(ConfigurationError, match="different purpose graphs"):
            eval_fida(text, env)


# a, b, x, y, h1 and h2 sit at the hierarchy line; p, q, l1 and l2 below it.
_SMALL = PurposeGraph(
    ["a", "b", "x", "y", "h1", "h2", "p", "q", "l1", "l2"],
    [("a", "p"), ("a", "q"), ("h1", "l1"), ("h1", "l2")],
    hierarchy_line=0,
)


def _h(ha=(), hp=(), la=(), lp=()):
    return split_result(_SMALL, frozenset(ha) | frozenset(la), frozenset(hp) | frozenset(lp))


def _parts(s):
    """(ha, hp, la, lp): a set's allowed and prohibited sides cut at its graph's line."""
    ha, la = s.graph.split_static(s.ap)
    hp, lp = s.graph.split_static(s.pp)
    return ha, hp, la, lp


def test_internal_merge_hand_example():
    si = _h(ha={"a"}, la={"p"}, lp={"q"})
    sj = _h(ha={"b"}, hp={"a"}, la={"p", "q"}, lp={"q"})
    out = apply_internal(InternalFunction.OPLUS, si, sj)
    ha, hp, la, lp = _parts(out)
    assert ha == frozenset()          # {a}&{b} = {} minus hp
    assert hp == frozenset()          # {} - {a}
    assert la == {"p", "q"}           # union minus lp
    assert lp == frozenset()          # {q} - {q}


def test_boxdot_always_clears_high_prohibited():
    si = _h(ha={"a"}, hp={"x"}, la={"p"})
    sj = _h(ha={"b"}, hp={"y"}, la={"p"})
    out = apply_internal(InternalFunction.BOXDOT, si, sj)
    ha, hp, _, _ = _parts(out)
    assert hp == frozenset()
    assert ha == {"a", "b"}  # symmetric difference, nothing prohibited


def test_all_internal_functions_match_oracle_samples():
    rng = random.Random(9)
    highs = ["h1", "h2"]
    lows = ["l1", "l2"]
    universe = highs + lows

    def sample():
        return _h(
            ha=[h for h in highs if rng.random() < 0.5],
            hp=[h for h in highs if rng.random() < 0.5],
            la=[l for l in lows if rng.random() < 0.5],
            lp=[l for l in lows if rng.random() < 0.5],
        )

    for _ in range(120):
        si, sj = sample(), sample()
        for fn in InternalFunction:
            got = apply_internal(fn, si, sj)
            want = oracle_internal(fn.value, _parts(si), _parts(sj), universe)
            assert _parts(got) == want, fn.value


def test_nary_merge_matches_oracle_samples():
    rng = random.Random(13)
    highs = ["h1", "h2"]
    lows = ["l1", "l2"]
    universe = highs + lows

    def sample():
        return _h(
            ha=[h for h in highs if rng.random() < 0.5],
            hp=[h for h in highs if rng.random() < 0.5],
            la=[l for l in lows if rng.random() < 0.5],
            lp=[l for l in lows if rng.random() < 0.5],
        )

    for _ in range(80):
        sets = [sample() for _ in range(rng.randint(2, 5))]
        got = apply_nary(sets)
        want = oracle_nary([_parts(s) for s in sets], universe)
        assert _parts(got) == want


def test_nary_needs_two_operands():
    with pytest.raises(InputFormatError):
        apply_nary([_h(ha={"a"})])
    with pytest.raises(InputFormatError):
        apply_nary([])


def test_duplicate_rule_pairs_agree():
    # f_odot and f_uplus share a merge rule, as the rule table records.
    rng = random.Random(3)
    for _ in range(20):
        si = _h(ha={x for x in "ab" if rng.random() < 0.5}, la={"p"})
        sj = _h(hp={x for x in "ab" if rng.random() < 0.5}, lp={"p"})
        assert apply_internal(InternalFunction.ODOT, si, sj) == apply_internal(
            InternalFunction.UPLUS, si, sj
        )


# -- expression parsing -------------------------------------------------------------

def test_parse_precedence_levels():
    tree = parse_fida("S1 & S2 + S3 upmax S4")
    assert tree == BinaryOp(
        BasicOp.UNION,
        BinaryOp(BasicOp.INTERSECT, SetRef("S1"), SetRef("S2")),
        BinaryOp(BasicOp.HIGH_MAX, SetRef("S3"), SetRef("S4")),
    )


def test_loose_operators_associate_left():
    tree = parse_fida("S1 + S2 - S3")
    assert tree == BinaryOp(
        BasicOp.SUBTRACT, BinaryOp(BasicOp.UNION, SetRef("S1"), SetRef("S2")), SetRef("S3")
    )


def test_parens_override():
    tree = parse_fida("S1 & (S2 + S3)")
    assert tree == BinaryOp(
        BasicOp.INTERSECT, SetRef("S1"), BinaryOp(BasicOp.UNION, SetRef("S2"), SetRef("S3"))
    )


@pytest.mark.parametrize(
    "alias, ascii_form",
    [
        ("S1 ▷ S2", "S1 upmax S2"),
        ("S1 △ S2", "S1 upmax S2"),
        ("S1 ◁ S2", "S1 downmin S2"),
        ("S1 ▽ S2", "S1 downmin S2"),
        ("S1 ↑△ S2", "S1 upmax S2"),
        ("S1 ↓△ S2", "S1 downmax S2"),
        ("S1 ↑▽ S2", "S1 upmin S2"),
        ("S1 ↓▽ S2", "S1 downmin S2"),
        ("S1 ⊟ S2", "S1 ^- S2"),
        ("S1 − S2", "S1 - S2"),
    ],
)
def test_unicode_aliases(alias, ascii_form):
    assert parse_fida(alias) == parse_fida(ascii_form)


def test_function_call_parses():
    tree = parse_fida("f_nary(A, B, f_oplus(C, D))")
    assert isinstance(tree, FunctionCall) and tree.name == "f_nary"
    assert len(tree.args) == 3 and isinstance(tree.args[2], FunctionCall)
    assert expression_names(tree) == {"A", "B", "C", "D"}
    assert expression_functions(tree) == {"f_nary", "f_oplus"}


def test_print_parenthesizes_inner_groups_only():
    tree = parse_fida("S1 & S2 + S3 upmax S4")
    assert print_fida(tree) == "(S1 & S2) + (S3 upmax S4)"
    assert parse_fida(print_fida(tree)) == tree
    assert print_fida(parse_fida("A + B")) == "A + B"
    assert print_fida(parse_fida("f_dcap(A, B + C)")) == "f_dcap(A, B + C)"


@pytest.mark.parametrize(
    "text, pos",
    [
        ("S1 $ S2", 3),
        ("", 0),
        ("S1 +", 4),
        ("(S1", 3),
        ("S1)", 2),
    ],
)
def test_syntax_errors_carry_positions(text, pos):
    with pytest.raises(FidaSyntaxError) as err:
        parse_fida(text)
    assert err.value.position == pos


@pytest.mark.parametrize(
    "text, message",
    [
        ("(a b", "expected ')', found 'b' (at position 3)"),
        ("f_oplus(a b)", "expected ',' or ')', found 'b' (at position 10)"),
    ],
)
def test_a_missing_close_or_separator_names_what_was_expected(text, message):
    with pytest.raises(FidaSyntaxError, match=f"^{re.escape(message)}$"):
        parse_fida(text)


def test_trailing_comma_rejected():
    with pytest.raises(FidaSyntaxError):
        parse_fida("f_oplus(A,)")


_name_st = st.sampled_from(["S1", "S2", "S3", "Pol_a", "x9"])
_op_st = st.sampled_from(list(BasicOp))
_fn_st = st.sampled_from([fn.value for fn in InternalFunction])


def _expr_st():
    return st.recursive(
        _name_st.map(SetRef),
        lambda children: st.one_of(
            st.tuples(_op_st, children, children).map(lambda t: BinaryOp(*t)),
            st.tuples(_fn_st, children, children).map(
                lambda t: FunctionCall(t[0], (t[1], t[2]))
            ),
        ),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None)
@given(_expr_st())
def test_print_parse_fixpoint(expr):
    text = print_fida(expr)
    assert parse_fida(text) == expr
    assert print_fida(parse_fida(text)) == text


# -- expression evaluation ------------------------------------------------------------

def test_eval_infix_is_componentwise(algebra_dag):
    env = {
        "S1": split_result(algebra_dag, {"high1", "low1"}, {"low2"}),
        "S2": split_result(algebra_dag, {"high2", "low1"}, {"low2"}),
    }
    out = eval_fida("S1 + S2", env)
    ha, _, la, lp = _parts(out)
    assert ha == {"high1", "high2"} and la == {"low1"}
    assert lp == {"low2"}
    ha, _, la, _ = _parts(eval_fida("S1 & S2", env))
    assert ha == frozenset() and la == {"low1"}


def test_eval_precedence_picks_whole_operand(algebra_dag):
    env = {
        "HIGHER": split_result(algebra_dag, {"high1"}, {"low1"}),
        "LOWER": split_result(algebra_dag, {"low2"}, {"high2"}),
    }
    out = eval_fida("HIGHER upmax LOWER", env)
    assert out == env["HIGHER"]
    out = eval_fida("HIGHER downmin LOWER", env)
    assert out == env["LOWER"]


def test_eval_precedence_uses_operand_graph_tags(algebra_dag):
    env = {
        "HIGHER": split_result(algebra_dag, {"high1"}, set()),
        "LOWER": split_result(algebra_dag, {"low2"}, set()),
    }
    assert eval_fida("HIGHER upmax LOWER", env) == env["HIGHER"]


def test_eval_precedence_without_any_graph_raises():
    env = {"P": HierarchicalPurposeSet(frozenset({"a"})), "Q": HierarchicalPurposeSet(frozenset({"b"}))}
    with pytest.raises(ConfigurationError):
        eval_fida("P upmax Q", env)


def test_eval_precedence_empty_sides(algebra_dag):
    full = split_result(algebra_dag, {"low1"}, set())
    hollow = split_result(algebra_dag, set(), {"high1"})
    out = eval_fida("A upmin B", {"A": hollow, "B": full})
    assert out == full
    both = eval_fida("A upmin B", {"A": hollow, "B": hollow})
    assert both.ap == frozenset() and _parts(both)[1] == {"high1"}


def test_eval_precedence_tie_unions_components(algebra_dag):
    env = {
        "L": split_result(algebra_dag, {"high1"}, {"low1"}),
        "R": split_result(algebra_dag, {"side1"}, {"low2"}),
    }
    out = eval_fida("L downmax R", env)
    ha, _, _, lp = _parts(out)
    assert ha == {"high1", "side1"}
    assert lp == {"low1", "low2"}


def test_eval_function_calls(algebra_dag):
    env = {
        "S1": split_result(algebra_dag, {"high1", "low1"}, set()),
        "S2": split_result(algebra_dag, {"high1", "low2"}, {"low1"}),
        "S3": split_result(algebra_dag, {"high2"}, set()),
    }
    got = eval_fida("f_dotplus(S1, S2)", env)
    want = apply_internal(InternalFunction.DOTPLUS, env["S1"], env["S2"])
    assert got == want
    nary = eval_fida("f_nary(S1, S2, S3)", env)
    assert nary == apply_nary([env["S1"], env["S2"], env["S3"]])


def test_eval_unbound_and_unknown_names(algebra_dag):
    env = {"S1": split_result(algebra_dag, {"high1"}, set())}
    with pytest.raises(UnboundNameError):
        eval_fida("GHOST", env)
    with pytest.raises(UnboundNameError):
        eval_fida("f_ghost(S1, S1)", env)
    with pytest.raises(FidaSyntaxError):
        eval_fida("f_oplus(S1, S1, S1)", env)


def test_eval_graph_tags_belong_to_each_value(algebra_dag):
    # C's tag does not reach the selection between the untagged A and B.
    env = {
        "A": HierarchicalPurposeSet(frozenset({"high1"})),
        "B": HierarchicalPurposeSet(frozenset({"low1"})),
        "C": split_result(algebra_dag, {"low2"}, set()),
    }
    with pytest.raises(ConfigurationError, match="^precedence operators need a purpose graph$"):
        eval_fida("(A upmax B) + C", env)
    assert eval_fida("A + C", env).ap == {"high1", "low2"}


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("f_dotplus(A, X) + GHOST", ConfigurationError, "different purpose graphs"),
        ("(A + X) + GHOST", ConfigurationError, "different purpose graphs"),
        ("GHOST + f_dotplus(A, X)", UnboundNameError, "no set bound to 'GHOST'"),
        ("f_ghost(f_nary(A, X), GHOST)", ConfigurationError, "different purpose graphs"),
        ("f_ghost(A, GHOST)", UnboundNameError, "no set bound to 'GHOST'"),
        ("f_ghost(A, f_oplus(A, A, A))", FidaSyntaxError, "f_oplus takes exactly two operands"),
        ("f_oplus(A, A, f_dotplus(A, X))", ConfigurationError, "different purpose graphs"),
        ("f_nary(f_ghost(A, A)) upmax GHOST", UnboundNameError, "unknown merge function 'f_ghost'"),
        ("f_nary(A) + GHOST", InputFormatError, "n-ary merge needs at least two operands"),
        ("f_nary(A)", InputFormatError, "n-ary merge needs at least two operands"),
    ],
)
def test_eval_raises_the_first_fault_in_operand_order(algebra_dag, hierarchy, text, error, message):
    """Operands are evaluated left to right before the node that takes them,
    so the first fault met in that order is the one raised."""
    env = {"A": split_result(algebra_dag, {"high1"}, set()), "X": split_result(hierarchy, {"Admin"}, set())}
    with pytest.raises(error, match=message):
        eval_fida(text, env)


def test_eval_accepts_prebuilt_ast(algebra_dag):
    env = {"ONLY": split_result(algebra_dag, {"low1"}, set())}
    assert eval_fida(SetRef("ONLY"), env) == env["ONLY"]


@pytest.mark.parametrize("text", ["A", "A + B", "f_dotplus(A, B)"])
def test_eval_gives_frozensets_whatever_iterables_the_operands_hold(algebra_dag, text):
    env = {"A": HierarchicalPurposeSet(["low1", "high1"], {"low2"}, algebra_dag), "B": HierarchicalPurposeSet({"high2"})}
    got = eval_fida(text, env)
    assert type(got.ap) is frozenset and type(got.pp) is frozenset
    assert got.ap == {"low1", "high1"} | ({"high2"} if "B" in text else set())
    hash(got)


@pytest.mark.parametrize("kind", [list, set, frozenset])
def test_every_entry_point_gives_frozensets_whatever_iterables_the_sides_are(algebra_dag, kind):
    """Each dataclass freezes its sides once, so the one-step entry points give
    what the compiled programs give over the same operands."""
    x = HierarchicalPurposeSet(kind(["low1", "high1"]), kind(["low2"]), algebra_dag)
    y = HierarchicalPurposeSet(kind(["high2", "low2"]), kind(["high1"]), algebra_dag)
    m = PartyResult("m", kind(["high1", "low1"]), kind(["low1"]))
    n = PartyResult("n", kind(["low1", "low2"]), kind(["high2"]))
    env = {"X": x, "Y": y}
    results = [(apply_internal(fn, x, y), eval_fida(f"{fn.value}(X, Y)", env)) for fn in InternalFunction]
    results.append((apply_nary([x, y, x]), eval_fida("f_nary(X, Y, X)", env)))
    for got, want in results:
        assert type(got.ap) is frozenset and type(got.pp) is frozenset
        assert got == want and hash(got) == hash(want)
    views = [(apply_external(fn, m, n, algebra_dag), merge_parties([m, n], fn.value, algebra_dag))
             for fn in ExternalFunction]
    views += [(m.intended(), merge_parties([m], "m")), (n.intended(), merge_parties([n], "n"))]
    for got, want in views:
        assert type(got) is frozenset and got == want
        hash(got)


def test_one_compiled_program_serves_many_operand_lists(algebra_dag):
    text = "f_dcap(B, A) upmax (A - B)"
    program = compile_fida(parse_fida(text), ["B", "A"])
    for ap, pp in [({"high1", "low1"}, {"low2"}), ({"low2"}, {"high1"}), (set(), set())]:
        env = {"A": split_result(algebra_dag, ap, pp), "B": split_result(algebra_dag, {"high2", "low1"}, {"low1"})}
        got = eval_fida(program, [(env[n].ap, env[n].pp, env[n].graph) for n in program.names])
        assert got == eval_fida(text, env) and got.graph is algebra_dag


# -- left folds of one merge function ------------------------------------------------

def _left_fold_code(function, n):
    """The code of `function` folded left over n slots: two pushes, then one
    binary step per merge, each after the push of its right operand."""
    step = _MERGE_STEPS[function]
    return (0, 1, step, *itertools.chain.from_iterable((i, step) for i in range(2, n)))


def _left_fold(fn, n):
    """`fn` folded left over n operand slots, and its program."""
    names = [f"S{i}" for i in range(n)]
    expr = left_fold_expr(fn.value, names)
    program = compile_fida(expr, names)
    assert program.code == _left_fold_code(fn.value, n)
    return expr, program


def _compiled_and_oracle(expr, program, operands):
    """The compiled program's result and the frozenset evaluator's, each a triple or the error raised."""

    def compiled():
        got = eval_fida(program, operands)
        return got.ap, got.pp, got.graph

    env = dict(zip(program.names, operands))
    return _result_or_error(compiled), _result_or_error(lambda: frozenset_eval_fida(expr, env))


@pytest.mark.parametrize("purpose", ["high2", "low1"])
@pytest.mark.parametrize("fn", list(InternalFunction))
def test_a_compiled_left_fold_matches_the_frozenset_evaluator_exhaustively(algebra_dag, fn, purpose):
    """Every merge is purpose by purpose, so one purpose above the line and one
    below it cover every case: each operand holds the purpose in its allowed
    side, its prohibited side, both or neither, and is tagged or not, in folds
    of two and three merges."""
    one = [frozenset(), frozenset({purpose})]
    for n in (3, 4):
        expr, program = _left_fold(fn, n)
        for sides in itertools.product(itertools.product(one, one), repeat=n):
            for tags in itertools.product((None, algebra_dag), repeat=n):
                operands = [(ap, pp, g) for (ap, pp), g in zip(sides, tags)]
                got, want = _compiled_and_oracle(expr, program, operands)
                assert got == want, operands


_purposes_st = st.frozensets(st.sampled_from(ALGEBRA_PURPOSES))


@settings(max_examples=300, deadline=None)
@given(
    fn=st.sampled_from(list(InternalFunction)),
    operands=st.lists(st.tuples(_purposes_st, _purposes_st, st.booleans()), min_size=3, max_size=6),
)
def test_a_compiled_left_fold_matches_the_frozenset_evaluator_on_sampled_folds(algebra_dag, fn, operands):
    """Folds of two to five merges over all eight purposes, each operand tagged or not."""
    operands = [(ap, pp, algebra_dag if tagged else None) for ap, pp, tagged in operands]
    got, want = _compiled_and_oracle(*_left_fold(fn, len(operands)), operands)
    assert got == want


@pytest.mark.parametrize("fn", list(InternalFunction))
def test_a_compiled_left_fold_raises_the_frozenset_evaluators_error_for_a_second_graph(algebra_dag, hierarchy, fn):
    """Operand k carries a second graph; the first operand is tagged, or not."""
    for n in range(3, 7):
        expr, program = _left_fold(fn, n)
        for k, lead in itertools.product(range(n), (algebra_dag, None)):
            tags = [lead] + [algebra_dag] * (n - 1)
            tags[k] = hierarchy
            operands = [(frozenset({"high1"}), frozenset({"low1"}), g) for g in tags]
            got, want = _compiled_and_oracle(expr, program, operands)
            assert got == want == (ConfigurationError, "operands are tagged with different purpose graphs")


def test_default_fold_compiles_to_one_step_per_merge():
    ids = [f"p{i}" for i in range(100)]
    assert compile_fida(default_internal_expr(ids), ids).code == _left_fold_code("f_dotplus", 100)


def test_every_call_compiles_to_its_own_step_after_its_operands(algebra_dag):
    dotplus, oplus = _MERGE_STEPS["f_dotplus"], _MERGE_STEPS["f_oplus"]
    names = ["A", "B", "C", "D"]
    assert compile_fida(parse_fida("f_oplus(A, B)"), names).code == (0, 1, oplus)
    nested = compile_fida(parse_fida("f_dotplus(f_dotplus(A, B), f_oplus(C, D))"), names)
    assert nested.code == (0, 1, dotplus, 2, 3, oplus, dotplus)
    ghost = compile_fida(parse_fida("f_dotplus(f_dotplus(A, ghost), C)"), names)
    assert [type(step) for step in ghost.code] == [int, tuple, tuple, int, tuple]
    assert ghost.code[2] == dotplus and ghost.code[4] == dotplus
    env = [(frozenset({"high1"}), frozenset(), algebra_dag)] * 4
    with pytest.raises(UnboundNameError, match="^no set bound to 'ghost'$"):
        eval_fida(ghost, env)
    mixed = compile_fida(parse_fida("f_oplus(f_oplus(f_oplus(f_dotplus(A, B), C), D), A)"), names)
    assert mixed.code == (0, 1, dotplus, 2, oplus, 3, oplus, 0, oplus)


def test_plain_eval_over_sets(algebra_dag):
    env = {"A": frozenset({"high1", "low1"}), "B": frozenset({"low1"})}
    assert eval_fida_plain("A & B", env) == {"low1"}
    assert eval_fida_plain("A - B", env) == {"high1"}
    assert eval_fida_plain("A ^- B", env) == {"high1"}
    assert eval_fida_plain("A upmax B", env, algebra_dag) == {"high1", "low1"}
    with pytest.raises(ConfigurationError):
        eval_fida_plain("A upmax B", env)
    with pytest.raises(ConfigurationError):
        eval_fida_plain("f_oplus(A, B)", env)


@settings(max_examples=80, deadline=None)
@given(
    st.frozensets(st.sampled_from(ALGEBRA_UNIVERSE)),
    st.frozensets(st.sampled_from(ALGEBRA_UNIVERSE)),
    st.frozensets(st.sampled_from(ALGEBRA_UNIVERSE)),
)
def test_plain_infix_laws(a, b, c):
    env = {"A": a, "B": b, "C": c}
    assert eval_fida_plain("A + B", env) == eval_fida_plain("B + A", env)
    assert eval_fida_plain("A & B", env) == eval_fida_plain("B & A", env)
    assert eval_fida_plain("A ^- B", env) == eval_fida_plain("B ^- A", env)
    assert eval_fida_plain("A + B + C", env) == eval_fida_plain("A + (B + C)", env)
    assert eval_fida_plain("A - B", env) == a - b


# -- depth ---------------------------------------------------------------------------


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("f_nary(", ", A)")])
def test_parser_nesting_limit(opening, closing):
    within = opening * MAX_NESTING + "A" + closing * MAX_NESTING
    assert expression_names(parse_fida(within)) == {"A"}
    beyond = opening * 400 + "A" + closing * 400
    with pytest.raises(FidaSyntaxError) as err:
        parse_fida(beyond)
    assert err.value.position == len(opening) * MAX_NESTING


def test_plain_eval_over_a_chain_of_1500_terms():
    env = {f"S{i}": frozenset({f"p{i % 7}"}) for i in range(1500)}
    text = " + ".join(env)
    expr = parse_fida(text)
    assert eval_fida_plain(expr, env) == {f"p{i}" for i in range(7)}
    assert print_fida(expr) == "(" * 1498 + "S0 + S1" + "".join(f") + S{i}" for i in range(2, 1500))
    assert expression_names(expr) == set(env)


def test_deep_call_tree_folds_and_prints(algebra_dag):
    expr = SetRef("S")
    for _ in range(2000):
        expr = FunctionCall("f_oplus", (expr, SetRef("S")))
    env = {"S": split_result(algebra_dag, {"high1", "low1"}, {"low2"})}
    assert eval_fida(expr, env) == apply_internal(InternalFunction.OPLUS, env["S"], env["S"])
    assert print_fida(expr).count("f_oplus(") == 2000
    assert expression_functions(expr) == {"f_oplus"}


_infix_st = st.recursive(
    st.sampled_from(["A", "B", "C", "D"]).map(SetRef),
    lambda children: st.tuples(_op_st, children, children).map(lambda t: BinaryOp(*t)),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(
    expr=_infix_st,
    sets=st.lists(st.frozensets(st.sampled_from(ALGEBRA_UNIVERSE)), min_size=4, max_size=4),
    graphed=st.booleans(),
)
@example(
    expr=BinaryOp(BasicOp.HIGH_MAX, SetRef("A"), SetRef("B")),
    sets=[frozenset(), frozenset({"low1"}), frozenset(), frozenset()],
    graphed=False,
)
def test_three_evaluators_agree_without_prohibitions(algebra_dag, expr, sets, graphed):
    """With a graph all three agree; without one, exactly the ranked expressions raise in all three."""
    pg = algebra_dag if graphed else None
    env = dict(zip("ABCD", sets))
    if graphed:
        pairs = {name: split_result(pg, s, ()) for name, s in env.items()}
    else:
        pairs = {name: HierarchicalPurposeSet(s) for name, s in env.items()}
    parties = [PartyResult(name, s, frozenset()) for name, s in env.items()]
    text = print_fida(expr)
    evaluators = (
        lambda: eval_fida(expr, pairs).ap,
        lambda: eval_fida_plain(expr, env, pg),
        lambda: merge_parties(parties, text, pg),
    )
    if not graphed and any(kind.value in text for kind in PrecedenceKind):
        for evaluate in evaluators:
            with pytest.raises(ConfigurationError, match="need a purpose graph"):
                evaluate()
    else:
        hierarchical, plain, party = (evaluate() for evaluate in evaluators)
        assert hierarchical == plain == party


@st.composite
def _layered_graph(draw):
    """A random layered purpose DAG: every purpose below layer 0 has a parent one layer up."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    layers = [[f"p{k}_{i}" for i in range(w)] for k, w in enumerate(widths)]
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        for child in lower:
            parents = draw(st.lists(st.sampled_from(upper), min_size=1, max_size=2, unique=True))
            edges += [(parent, child) for parent in parents]
    line = draw(st.integers(0, len(layers)))  # up to one past the deepest rank
    return PurposeGraph([p for layer in layers for p in layer], edges, hierarchy_line=line)


_COMBINATORS = [fn.value for fn in InternalFunction] + ["f_nary"] + list(BasicOp)


def _combine(how, args):
    if isinstance(how, BasicOp):
        return BinaryOp(how, args[0], args[1])
    return FunctionCall(how, tuple(args))


@st.composite
def _mixed_expr(draw, names):
    """An expression over at least three operands mixing every function and operator."""
    leaf = st.sampled_from(names).map(SetRef)

    def node(children):
        return st.tuples(st.sampled_from(_COMBINATORS), st.lists(children, min_size=2, max_size=3)).map(
            lambda t: _combine(t[0], t[1] if t[0] == "f_nary" else t[1][:2])
        )

    parts = draw(st.lists(st.recursive(leaf, node, max_leaves=6), min_size=3, max_size=3))
    outer, inner = draw(st.lists(st.sampled_from(_COMBINATORS), min_size=2, max_size=2))
    return _combine(outer, [parts[0], _combine(inner, parts[1:])])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_merges_match_the_four_part_reference(data):
    pg = data.draw(_layered_graph())
    pool = sorted(pg.purposes)
    subsets = st.frozensets(st.sampled_from(pool))
    names = ["A", "B", "C", "D"]
    sides = {n: (data.draw(subsets), data.draw(subsets)) for n in names}
    expr = data.draw(_mixed_expr(names))
    got = eval_fida(expr, {n: split_result(pg, ap, pp) for n, (ap, pp) in sides.items()})
    ref_env = {n: reference_split_result(pg, ap, pp) for n, (ap, pp) in sides.items()}
    want = reference_eval_fida(expr, ref_env, pg)
    assert got.ap == want.allowed() and got.pp == want.prohibited()
    assert pg.split_static(got.ap) == (want.ha, want.la)
    assert pg.split_static(got.pp) == (want.hp, want.lp)


_FOLD_FUNCTIONS = [fn.value for fn in InternalFunction] + [fn.value for fn in ExternalFunction]
_NAMES = ["A", "B", "C", "D"]


@settings(max_examples=300, deadline=None)
@given(expr=st.one_of(_mixed_expr(_NAMES), st.sampled_from(_FOLD_FUNCTIONS).map(lambda f: left_fold_expr(f, _NAMES))))
@example(expr=left_fold_expr("f_dotplus", _NAMES))
@example(expr=left_fold_expr("F3", _NAMES))
def test_every_compiled_program_has_one_step_per_node(expr):
    """Merge programs and party programs alike, left folds of one function
    included; a function the compiler does not know is one fault step."""
    nodes = fold(expr, lambda _: 1, lambda _, args: 1 + sum(args), lambda _, l, r: 1 + l + r)
    assert len(compile_fida(expr, _NAMES).code) == nodes
    assert len(_party_program(print_fida(expr), tuple(_NAMES))[0].code) == nodes


# -- the mask program on masks wider than a machine word ------------------------------

def _wide_graph(seed, width):
    """Five layers of `width` purposes, each below layer 0 with one or two parents, cut at rank 2."""
    rng = random.Random(seed)
    layers = [[f"w{k}_{i}" for i in range(width)] for k in range(5)]
    edges = [
        (parent, child)
        for upper, lower in zip(layers, layers[1:])
        for child in lower
        for parent in rng.sample(upper, rng.randint(1, 2))
    ]
    return PurposeGraph([p for layer in layers for p in layer], edges, hierarchy_line=2)


_WIDE = _wide_graph(1, 20)  # 100 purposes: masks span two 64-bit words
_OTHER = _wide_graph(2, 23)  # a second graph over the same names and 15 of its own
_RUN_FUNCTIONS = [fn.value for fn in InternalFunction]


def _random_expr(rng, names, leaves):
    """A tree over every function and operator with `leaves` operands, which
    may hold left-deep runs of one merge function. Now and then a name is
    unbound, a function unknown or a call given one or three operands."""
    if leaves == 1:
        return SetRef("GHOST" if rng.random() < 0.03 else rng.choice(names))
    if leaves >= 3 and rng.random() < 0.2:
        steps = rng.randint(2, leaves - 1)
        run = _random_expr(rng, names, leaves - steps)
        for _ in range(steps):
            run = FunctionCall(rng.choice(_RUN_FUNCTIONS), (run, _random_expr(rng, names, 1)))
        return run
    how = "f_ghost" if rng.random() < 0.03 else rng.choice(_COMBINATORS)
    arity = min(2 if isinstance(how, BasicOp) or rng.random() < 0.9 else rng.choice([1, 3]), leaves)
    cuts = [0, *sorted(rng.sample(range(1, leaves), arity - 1)), leaves]
    args = [_random_expr(rng, names, high - low) for low, high in zip(cuts, cuts[1:])]
    return _combine(how, args)


def _result_or_error(evaluate):
    try:
        return evaluate()
    except ProvPurposeError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_set_program_matches_the_frozenset_evaluator(data):
    """Operands are tagged with a 100-purpose graph, with none, or with a
    second graph; untagged ones may hold purposes only the second graph
    knows. Results, and the class and message of the first error met, agree.
    A result holds frozensets, tagged with the graph its operands share."""
    names = ["A", "B", "C", "D", "E"]
    env = {}
    for name in names:
        tag = data.draw(st.sampled_from([_WIDE, _WIDE, None, None, _OTHER]))
        pool = sorted(_WIDE.purposes | _OTHER.purposes if tag is None else tag.purposes)
        sides = st.frozensets(st.sampled_from(pool), max_size=40)
        env[name] = HierarchicalPurposeSet(data.draw(sides), data.draw(sides), tag)
    expr = _random_expr(random.Random(data.draw(st.integers(0, 2**32))), names, data.draw(st.integers(1, 10)))

    def over_sets():
        got = eval_fida(expr, env)
        assert type(got.ap) is frozenset and type(got.pp) is frozenset
        tags = {env[name].graph for name in expression_names(expr)} - {None}
        assert len(tags) <= 1 and got.graph is next(iter(tags), None)
        return got.ap, got.pp, got.graph

    raw = {name: (s.ap, s.pp, s.graph) for name, s in env.items()}
    assert _result_or_error(over_sets) == _result_or_error(lambda: frozenset_eval_fida(expr, raw))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_mask_program_over_a_graphs_own_masks_matches_the_four_part_reference(data):
    """The form decide runs: operand masks under the graph's own encoding, every one tagged with it."""
    names = ["A", "B", "C", "D"]
    sides = st.frozensets(st.sampled_from(sorted(_WIDE.purposes)), max_size=40)
    pairs = {name: (data.draw(sides), data.draw(sides)) for name in names}
    runs = st.sampled_from(_RUN_FUNCTIONS).map(lambda f: left_fold_expr(f, names))
    expr = data.draw(st.one_of(_mixed_expr(names), runs))
    bits = _WIDE.bits
    ap, pp = eval_fida(compile_fida(expr, names), [(bits.encode(ap), bits.encode(pp)) for ap, pp in pairs.values()], _WIDE)
    got = HierarchicalPurposeSet(bits.decode(ap), bits.decode(pp), _WIDE)
    assert got == eval_fida(expr, {name: split_result(_WIDE, ap, pp) for name, (ap, pp) in pairs.items()})
    ref_env = {name: reference_split_result(_WIDE, *pair) for name, pair in pairs.items()}
    want = reference_eval_fida(expr, ref_env, _WIDE)
    assert got.ap == want.allowed() and got.pp == want.prohibited()


def _winners(codec, s1, s2):
    """Each precedence kind's winner over masks under `codec`, or the error raised."""
    m1, m2 = codec.encode(s1), codec.encode(s2)
    return [_result_or_error(lambda: _winner(kind, m1, m2, codec)) for kind in PrecedenceKind]


def _set_winners(pg, s1, s2):
    return [_result_or_error(lambda: _fs_precedence_winner(kind, s1, s2, pg)) for kind in PrecedenceKind]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_graphs_own_masks_rank_by_bit_position_as_their_sets_rank(data):
    """Layers of one to three purposes make rank ties common; either operand may be empty."""
    pg = data.draw(_layered_graph())
    subsets = st.frozensets(st.sampled_from(sorted(pg.purposes)))
    s1, s2 = data.draw(subsets), data.draw(subsets)
    assert _winners(pg.bits, s1, s2) == _set_winners(pg, s1, s2)


def test_a_graphs_own_masks_rank_as_sets_on_every_pair_of_subsets(algebra_dag):
    pool = ("root", "side1", *ALGEBRA_UNIVERSE)
    subsets = [frozenset(c) for n in range(len(pool) + 1) for c in itertools.combinations(pool, n)]
    seen = set()
    for s1, s2 in itertools.product(subsets, repeat=2):
        want = _set_winners(algebra_dag, s1, s2)
        assert _winners(algebra_dag.bits, s1, s2) == want
        seen.update(want)
    assert seen == {-1, 0, 1}


@pytest.mark.parametrize(
    "s1, s2, message",
    [
        ({"high1", "zeta", "omega"}, {"low1", "alpha"}, "unknown purpose 'omega'"),
        ({"low1"}, {"high1", "zeta", "alpha"}, "unknown purpose 'alpha'"),
    ],
)
def test_sets_tagged_with_their_graph_are_checked_before_ranking(algebra_dag, s1, s2, message):
    """The smallest unknown purpose of the first operand, then of the second."""
    s1, s2 = frozenset(s1), frozenset(s2)
    got = [_result_or_error(lambda: _winner(kind, s1, s2, algebra_dag)) for kind in PrecedenceKind]
    assert got == _set_winners(algebra_dag, s1, s2)
    assert got == [(UnknownPurposeError, message)] * len(PrecedenceKind)


def test_operands_without_a_graph_cannot_rank_even_when_empty():
    need = [(ConfigurationError, "precedence operators need a purpose graph")] * len(PrecedenceKind)
    for x, y in ((0, 0), (0b01, 0b10), (frozenset(), frozenset()), (frozenset("a"), frozenset("b"))):
        assert [_result_or_error(lambda: _winner(kind, x, y, None)) for kind in PrecedenceKind] == need


# Every alias and operator spelling (and the arrows that only start one), a bare
# "^", ASCII and Unicode whitespace, letters, digits and characters no token
# accepts. "½" is alphanumeric but not a letter: it may continue a name, never
# start one.
_SCANNER_PIECES = sorted(
    set(_UNICODE_ALIASES)
    | {"↑", "↓", "+", "-", "&", "^-", "^", "upmax", "downmax", "upmin", "downmin"}
    | {" ", "\t", "\x1c", "\u3000", "a", "Z", "é", "Ж", "x1", "7", "٣", "½", "_", "(", ")", ",", "$"}
)


def _scan(tokenize, text):
    try:
        return [(t.kind, t.value, t.pos) for t in tokenize(text)]
    except FidaSyntaxError as exc:
        return str(exc), exc.position


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SCANNER_PIECES), max_size=12).map("".join))
@example("½x")
@example("x½ ^ y")
@example("↑△↓▽▷◁△▽⊟−↑")
def test_scanner_matches_the_character_loop(text):
    assert _scan(_tokenize, text) == _scan(oracle_tokenize, text)
