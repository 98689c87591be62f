"""Set operators, hierarchical merges, and the merge-expression language."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from provpurpose import (
    BasicOp,
    BinaryOp,
    ConfigurationError,
    EmptyPurposeSetError,
    FidaSyntaxError,
    FunctionCall,
    HierarchicalPurposeSet,
    InputFormatError,
    InternalFunction,
    PrecedenceKind,
    PurposeGraph,
    SetRef,
    UnboundNameError,
    apply_internal,
    apply_nary,
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
from provpurpose.algebra import _UNICODE_ALIASES, MAX_NESTING, _tokenize
from provpurpose.external import PartyResult, merge_parties
from conftest import ALGEBRA_EDGES, ALGEBRA_PURPOSES, ALGEBRA_UNIVERSE
from oracles import (
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


def test_eval_accepts_prebuilt_ast(algebra_dag):
    env = {"ONLY": split_result(algebra_dag, {"low1"}, set())}
    assert eval_fida(SetRef("ONLY"), env) == env["ONLY"]


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
