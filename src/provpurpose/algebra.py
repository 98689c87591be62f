"""Purpose-set algebra: basic operators, hierarchical merges, expressions.

Basic operators over plain purpose sets
---------------------------------------

``+`` union, ``&`` intersection, ``^-`` symmetric difference, ``-``
subtraction (the only asymmetric one: ``s1 - s2`` keeps what is in ``s1`` and
not in both), and four whole-set precedence selections that need purpose
ranks:

* ``upmax``: the operand whose best member sits higher (smaller min rank)
* ``downmax``: the operand whose best member sits lower
* ``upmin``: the operand whose worst member sits higher (smaller max rank)
* ``downmin``: the operand whose worst member sits lower

Precedence selections return one operand whole. When the comparison ties the
union of both operands is returned, which keeps every selection commutative
and still gives ``s op s == s``. The public operator insists on non-empty
operands; inside expression evaluation and the cross-party merge functions a
totalized variant is used instead where an empty operand simply loses. Either
way a precedence selection needs a purpose graph, whatever its operands.

Hierarchical merges
-------------------

A :class:`HierarchicalPurposeSet` is a pair of allowed and prohibited sets.
Thirteen binary merge functions combine two pairs by rules that differ above
and below the purpose graph's hierarchy line: per level, combine the allowed
sets, combine the prohibited sets, and remove the latter from the former.
Each basic operator commutes with cutting at the line, ``(X op Y) ∩ H = (X ∩
H) op (Y ∩ H)``, so a merge combines whole sets and cuts each side once, to
``(high(X, Y) ∩ H) ∪ (low(X, Y) − H)`` with ``H`` the graph's high part; a
side whose two rules agree needs no cut. The table is exhaustive:

============  =============  ==============  =============  ==============
function      high combine   high prohibit   low combine    low prohibit
============  =============  ==============  =============  ==============
f_oplus       ``&``          ``-``           ``+``          ``-``
f_ominus      ``&``          ``&``           ``+``          ``&``
f_otimes      ``&``          ``-``           ``+``          ``&``
f_oslash      ``&``          ``&``           ``+``          ``-``
f_odot        ``+``          ``-``           ``+``          ``&``
f_uplus       ``+``          ``-``           ``+``          ``&``
f_dotplus     ``+``          ``&``           ``+``          ``&``
f_dcap        ``+``          ``&``           ``&``          ``&``
f_dcup        ``+``          ``&``           ``&``          ``-``
f_boxtimes    ``^-``         ``-``           ``^-``         ``&``
f_boxdot      ``^-``         ``-`` (self)    ``+``          ``&``
f_boxplus     ``+``          ``-``           ``^-``         ``&``
f_divtimes    ``^-``         ``-``           ``&``          ``&``
============  =============  ==============  =============  ==============

Two quirks are deliberate and kept as designed: ``f_uplus`` duplicates
``f_odot`` exactly, and ``f_boxdot``'s high-side prohibit combines the left
prohibited set with itself (so it is always empty). The merged prohibited
set propagates into the result so later merges keep honoring it.
``apply_nary`` merges any number of operands by the rule (+, +, ^-, &).

Expressions
-----------

Merge expressions combine named sets with infix operators and function calls::

    (S1 & S2) + f_dotplus(S3, S4)

``&`` and the precedence selections bind tighter than ``+``, ``-``, ``^-``;
equal-precedence operators associate left. Unicode spellings of the operators
(⊟ − ↑△ ↓△ ↑▽ ↓▽ ▷ △ ◁ ▽) are accepted and normalized: the triangle forms
bind to upmax (▷, △) and downmin (◁, ▽). Infix operators between
hierarchical operands act on the allowed and on the prohibited sets;
precedence selections compare the allowed sets. A plain purpose set is the
pair that prohibits nothing, so one evaluator serves both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import and_, or_, sub, xor
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .errors import (
    ConfigurationError,
    EmptyPurposeSetError,
    FidaSyntaxError,
    InputFormatError,
    MissingHierarchyLineError,
    UnboundNameError,
)
from .purposes import PurposeGraph, PurposeSet

# -- basic operators ----------------------------------------------------------

def op_union(s1: Iterable[str], s2: Iterable[str]) -> PurposeSet:
    return frozenset(s1) | frozenset(s2)


def op_intersection(s1: Iterable[str], s2: Iterable[str]) -> PurposeSet:
    return frozenset(s1) & frozenset(s2)


def op_difference(s1: Iterable[str], s2: Iterable[str]) -> PurposeSet:
    """Symmetric difference: everything in exactly one operand."""
    return frozenset(s1) ^ frozenset(s2)


def op_subtraction(s1: Iterable[str], s2: Iterable[str]) -> PurposeSet:
    """Remove from s1 whatever both operands share. Asymmetric."""
    return frozenset(s1) - frozenset(s2)


class PrecedenceKind(str, Enum):
    HIGH_MAX = "upmax"
    LOW_MAX = "downmax"
    HIGH_MIN = "upmin"
    LOW_MIN = "downmin"


# (extreme rank, higher wins): each operand is ranked by its best (min) or
# worst (max) member, and the one that sits higher (smaller rank) or lower wins.
_RANKING = {
    PrecedenceKind.HIGH_MAX: (min, True),
    PrecedenceKind.LOW_MAX: (min, False),
    PrecedenceKind.HIGH_MIN: (max, True),
    PrecedenceKind.LOW_MIN: (max, False),
}


class BasicOp(str, Enum):
    UNION = "+"
    SUBTRACT = "-"
    SYM_DIFF = "^-"
    INTERSECT = "&"
    HIGH_MAX = "upmax"
    LOW_MAX = "downmax"
    HIGH_MIN = "upmin"
    LOW_MIN = "downmin"


_SetOp = Callable[[PurposeSet, PurposeSet], PurposeSet]

# What each operator does: a set function, or the ranked selection of its own name.
_MEANING: dict[BasicOp, _SetOp | PrecedenceKind] = {
    BasicOp.UNION: or_,
    BasicOp.SUBTRACT: sub,
    BasicOp.SYM_DIFF: xor,
    BasicOp.INTERSECT: and_,
    **{BasicOp(kind.value): kind for kind in PrecedenceKind},
}

# How tightly each operator binds in expression text; equal strengths associate left.
_BINDING: dict[BasicOp, int] = {
    **dict.fromkeys((BasicOp.UNION, BasicOp.SUBTRACT, BasicOp.SYM_DIFF), 1),
    **dict.fromkeys((BasicOp.INTERSECT, BasicOp.HIGH_MAX, BasicOp.LOW_MAX, BasicOp.HIGH_MIN, BasicOp.LOW_MIN), 2),
}


def _precedence_winner(
    kind: PrecedenceKind, s1: PurposeSet, s2: PurposeSet, pg: PurposeGraph | None
) -> int:
    """-1 when s1 wins, 1 when s2 wins, 0 on a tie.

    Every precedence selection comes here, so this is where the one graph rule
    lives: `pg` is needed whatever the operands. An empty operand then loses
    without a rank comparison, so two empty operands tie. Otherwise an
    unknown purpose raises, the smallest one of s1 and then of s2.
    """
    if pg is None:
        raise ConfigurationError("precedence operators need a purpose graph")
    if not s1 or not s2:
        return bool(s2) - bool(s1)
    pg.check_members(s1)
    pg.check_members(s2)
    extreme, higher_wins = _RANKING[kind]
    rank = pg._rank.__getitem__  # both operands are checked, so rank_of's own check is not needed
    k1, k2 = extreme(map(rank, s1)), extreme(map(rank, s2))
    if k1 == k2:
        return 0
    return -1 if (k1 < k2) == higher_wins else 1


def op_precedence(
    kind: PrecedenceKind, s1: Iterable[str], s2: Iterable[str], pg: PurposeGraph
) -> PurposeSet:
    """Select one whole operand by rank comparison; ties return the union."""
    a, b = frozenset(s1), frozenset(s2)
    if not a or not b:
        raise EmptyPurposeSetError("precedence operators need non-empty operands")
    return precedence_total(kind, a, b, pg)


def precedence_total(
    kind: PrecedenceKind, s1: Iterable[str], s2: Iterable[str], pg: PurposeGraph
) -> PurposeSet:
    """Totalized selection used inside evaluators: an empty operand loses."""
    a, b = frozenset(s1), frozenset(s2)
    winner = _precedence_winner(kind, a, b, pg)
    return a if winner < 0 else b if winner > 0 else a | b


def apply_basic(
    op: BasicOp, s1: PurposeSet, s2: PurposeSet, pg: PurposeGraph | None
) -> PurposeSet:
    """One basic operator over plain sets: party expressions and F1-F8."""
    meaning = _MEANING[op]
    if isinstance(meaning, PrecedenceKind):
        return precedence_total(meaning, s1, s2, pg)
    return meaning(s1, s2)


# -- hierarchical purpose sets --------------------------------------------------

@dataclass(frozen=True)
class HierarchicalPurposeSet:
    """Allowed and prohibited purposes, merged by rules that differ at a line.

    The one value expressions evaluate over: a plain purpose set is the pair
    that prohibits nothing. `graph`, never part of equality, is the purpose
    graph that merges cut at and precedence selections rank by; every operator
    rejects operands tagged with different graphs.
    """

    ap: PurposeSet = frozenset()
    pp: PurposeSet = frozenset()
    graph: PurposeGraph | None = field(default=None, compare=False, repr=False)


def split_result(pg: PurposeGraph, ap: Iterable[str], pp: Iterable[str]) -> HierarchicalPurposeSet:
    """Check both sets against `pg`, which needs a hierarchy line for merges to cut at."""
    if pg.hierarchy_line is None:
        raise MissingHierarchyLineError("purpose graph has no hierarchy line")
    return HierarchicalPurposeSet(pg.check_members(ap), pg.check_members(pp), graph=pg)


class InternalFunction(Enum):
    """The thirteen named hierarchical merge functions."""

    OPLUS = "f_oplus"
    OMINUS = "f_ominus"
    OTIMES = "f_otimes"
    OSLASH = "f_oslash"
    ODOT = "f_odot"
    UPLUS = "f_uplus"
    DOTPLUS = "f_dotplus"
    DCAP = "f_dcap"
    DCUP = "f_dcup"
    BOXTIMES = "f_boxtimes"
    BOXDOT = "f_boxdot"
    BOXPLUS = "f_boxplus"
    DIVTIMES = "f_divtimes"


def _rule(*spellings: str | None) -> tuple[_SetOp | None, ...]:
    """A merge rule's set functions, from the operator spellings of the module table."""
    return tuple(None if op is None else _MEANING[BasicOp(op)] for op in spellings)


# (high combine, high prohibit, low combine, low prohibit); see the module table.
# f_boxdot's high prohibit, P1 - P1, is always empty: None keeps nothing above.
_MERGE_RULES: dict[InternalFunction, tuple[_SetOp | None, ...]] = {
    InternalFunction.OPLUS: _rule("&", "-", "+", "-"),
    InternalFunction.OMINUS: _rule("&", "&", "+", "&"),
    InternalFunction.OTIMES: _rule("&", "-", "+", "&"),
    InternalFunction.OSLASH: _rule("&", "&", "+", "-"),
    InternalFunction.ODOT: _rule("+", "-", "+", "&"),
    InternalFunction.UPLUS: _rule("+", "-", "+", "&"),
    InternalFunction.DOTPLUS: _rule("+", "&", "+", "&"),
    InternalFunction.DCAP: _rule("+", "&", "&", "&"),
    InternalFunction.DCUP: _rule("+", "&", "&", "-"),
    InternalFunction.BOXTIMES: _rule("^-", "-", "^-", "&"),
    InternalFunction.BOXDOT: _rule("^-", None, "+", "&"),
    InternalFunction.BOXPLUS: _rule("+", "-", "^-", "&"),
    InternalFunction.DIVTIMES: _rule("^-", "-", "&", "&"),
}

_NARY_RULE = _rule("+", "+", "^-", "&")

_FUNCTION_BY_TOKEN = {fn.value: fn for fn in InternalFunction}


def _shared_graph(sets: Iterable[HierarchicalPurposeSet]) -> PurposeGraph | None:
    graph = None
    for s in sets:
        if s.graph is not None and s.graph is not graph:
            if graph is not None:
                raise ConfigurationError("operands are tagged with different purpose graphs")
            graph = s.graph
    return graph


def _cut(high: PurposeSet, upper: _SetOp | None, lower: _SetOp, x: PurposeSet, y: PurposeSet) -> PurposeSet:
    """`upper(x, y)` inside `high`, `lower(x, y)` outside; no graph, nothing is high."""
    below = lower(x, y)
    if upper is lower or not high:
        return below
    if upper is None:
        return below - high
    return (upper(x, y) & high) | (below - high)


def apply_internal(
    fn: InternalFunction, si: HierarchicalPurposeSet, sj: HierarchicalPurposeSet
) -> HierarchicalPurposeSet:
    """Merge two hierarchical sets with one of the thirteen functions."""
    graph = _shared_graph((si, sj))
    high = frozenset() if graph is None else graph.high
    high_combine, high_prohibit, low_combine, low_prohibit = _MERGE_RULES[fn]
    pp = _cut(high, high_prohibit, low_prohibit, si.pp, sj.pp)
    ap = _cut(high, high_combine, low_combine, si.ap, sj.ap) - pp
    return HierarchicalPurposeSet(ap, pp, graph=graph)


def apply_nary(sets: Sequence[HierarchicalPurposeSet]) -> HierarchicalPurposeSet:
    """Merge two or more operands by the rule (+, +, ^-, &): each side's cut is
    folded over all operands, then the prohibited side leaves the allowed one."""
    if len(sets) < 2:
        raise InputFormatError("n-ary merge needs at least two operands")
    graph = _shared_graph(sets)
    high = frozenset() if graph is None else graph.high
    high_combine, high_prohibit, low_combine, low_prohibit = _NARY_RULE
    pp = reduce(lambda x, y: _cut(high, high_prohibit, low_prohibit, x, y), [s.pp for s in sets])
    ap = reduce(lambda x, y: _cut(high, high_combine, low_combine, x, y), [s.ap for s in sets]) - pp
    return HierarchicalPurposeSet(ap, pp, graph=graph)


# -- expression syntax ----------------------------------------------------------

# Unicode spellings, normalized during scanning. The triangle/harpoon forms
# used between prohibited sets bind here, in one place: right/plain triangles
# to upmax, left/down triangles to downmin.
_UNICODE_ALIASES: dict[str, str] = {
    "↑△": "upmax",   # up arrow + triangle
    "↓△": "downmax",
    "↑▽": "upmin",
    "↓▽": "downmin",
    "▷": "upmax",         # right-pointing triangle
    "△": "upmax",
    "◁": "downmin",       # left-pointing triangle
    "▽": "downmin",
    "⊟": "^-",            # squared minus
    "−": "-",             # minus sign
}


@dataclass(frozen=True)
class SetRef:
    name: str


@dataclass(frozen=True)
class FunctionCall:
    name: str
    args: tuple["FidaExpr", ...]


@dataclass(frozen=True)
class BinaryOp:
    op: BasicOp
    left: "FidaExpr"
    right: "FidaExpr"


FidaExpr = Union[SetRef, FunctionCall, BinaryOp]


def left_fold_expr(function: str, names: Sequence[str]) -> FidaExpr:
    """`function` folded left to right over set names; one name stands alone."""
    expr: FidaExpr = SetRef(names[0])
    for name in names[1:]:
        expr = FunctionCall(function, (expr, SetRef(name)))
    return expr

T = TypeVar("T")

#: Parentheses and function calls nest at most this deep in expression text.
MAX_NESTING = 200


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "op" | "(" | ")" | ","
    value: str
    pos: int


# Every alias and symbol operator spelling, longest first, then punctuation, then
# names, which include the word operators; anything else is one unexpected
# character. Names continue with \w, but only isalpha() or "_" may start one.
_SYMBOLS = [*_UNICODE_ALIASES, *(op.value for op in BasicOp if not op.value.isalpha())]
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<op>" + "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))) + r")"
    r"|(?P<punct>[(),])|(?P<name>\w+)|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "op":
            tokens.append(_Token("op", _UNICODE_ALIASES.get(value, value), pos))
        elif kind == "punct":
            tokens.append(_Token(value, value, pos))
        elif kind == "name" and (value[0].isalpha() or value[0] == "_"):
            tokens.append(_Token("op" if value in _BINDING else "name", value, pos))
        elif kind != "space":
            raise FidaSyntaxError(f"unexpected character {value[0]!r}", pos)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], text: str) -> None:
        self.tokens = tokens
        self.text = text
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FidaSyntaxError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> FidaExpr:
        expr = self.expr()
        tok = self.peek()
        if tok is not None:
            raise FidaSyntaxError(f"unexpected {tok.value!r}", tok.pos)
        return expr

    def expr(self, binding: int = 1) -> FidaExpr:
        """Operands joined left to right by operators that bind at least
        `binding`; each right operand takes only operators that bind tighter."""
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind == "op" and _BINDING[tok.value] >= binding:
            self.take()
            op = BasicOp(tok.value)
            node = BinaryOp(op, node, self.expr(_BINDING[op] + 1))
        return node

    def factor(self) -> FidaExpr:
        tok = self.take()
        if tok.kind == "name":
            nxt = self.peek()
            if nxt is None or nxt.kind != "(":
                return SetRef(tok.value)
        elif tok.kind != "(":
            raise FidaSyntaxError(f"unexpected {tok.value!r}", tok.pos)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FidaSyntaxError(f"expression nests deeper than {MAX_NESTING} levels", tok.pos)
        if tok.kind == "(":
            node = self.expr()
            if (end := self.take()).kind != ")":
                raise FidaSyntaxError(f"expected ')', found {end.value!r}", end.pos)
        else:
            self.take()
            args = [self.expr()]
            while (sep := self.take()).kind == ",":
                args.append(self.expr())
            if sep.kind != ")":
                raise FidaSyntaxError(f"expected ',' or ')', found {sep.value!r}", sep.pos)
            node = FunctionCall(tok.value, tuple(args))
        self.depth -= 1
        return node


def parse_fida(text: str) -> FidaExpr:
    """Parse a merge expression; raises :class:`FidaSyntaxError` with position."""
    tokens = _tokenize(text)
    if not tokens:
        raise FidaSyntaxError("empty expression", 0)
    return _Parser(tokens, text).parse()


def fold(
    expr: FidaExpr,
    ref: Callable[[str], T],
    call: Callable[[str, list[T]], T],
    infix: Callable[[BasicOp, T, T], T],
) -> T:
    """Fold an expression bottom-up on an explicit stack, so no tree is too deep.

    `ref` maps a set name to a value, `call` a function name and its argument
    values, `infix` an operator and its operand values. Operands are folded
    left to right before the node that takes them, as in a recursive walk.
    """
    order: list[FidaExpr] = []
    todo = [expr]
    while todo:
        node = todo.pop()
        order.append(node)
        kind = type(node)
        if kind is FunctionCall:
            todo.extend(node.args)
        elif kind is BinaryOp:
            todo.append(node.left)
            todo.append(node.right)
    # `order` lists every node before its operands, right ones first; reversed,
    # it is the post-order a recursive walk would evaluate in.
    values: list[T] = []
    for node in reversed(order):
        kind = type(node)
        if kind is SetRef:
            values.append(ref(node.name))
        elif kind is BinaryOp:
            right = values.pop()
            values[-1] = infix(node.op, values[-1], right)
        else:
            start = len(values) - len(node.args)
            args = values[start:]
            del values[start:]
            values.append(call(node.name, args))
    return values[0]


def print_fida(expr: FidaExpr) -> str:
    """Canonical ASCII rendering; reparsing it yields an equal tree."""
    # Each value is (text, is_infix); an infix operation is parenthesized
    # where it is itself the operand of one.
    def operand(part: tuple[str, bool]) -> str:
        return f"({part[0]})" if part[1] else part[0]

    text, _ = fold(
        expr,
        lambda name: (name, False),
        lambda name, args: (f"{name}({', '.join(text for text, _ in args)})", False),
        lambda op, l, r: (f"{operand(l)} {op.value} {operand(r)}", True),
    )
    return text


def expression_names(expr: FidaExpr) -> frozenset[str]:
    """All set names an expression references."""
    return fold(
        expr,
        lambda name: frozenset({name}),
        lambda _, args: frozenset().union(*args),
        lambda _, l, r: l | r,
    )


def expression_functions(expr: FidaExpr) -> frozenset[str]:
    """All function names an expression applies."""
    return fold(
        expr,
        lambda _: frozenset(),
        lambda name, args: frozenset({name}).union(*args),
        lambda _, l, r: l | r,
    )


# -- evaluation -----------------------------------------------------------------

def _binding(env: Mapping[str, T], what: str) -> Callable[[str], T]:
    """A fold's `ref` that looks names up in `env`: "no {what} 'X'" when unbound."""

    def ref(name: str) -> T:
        try:
            return env[name]
        except KeyError:
            raise UnboundNameError(f"no {what} {name!r}") from None

    return ref


def _merge_call(name: str, args: list[HierarchicalPurposeSet]) -> HierarchicalPurposeSet:
    if name == "f_nary":
        return apply_nary(args)
    fn = _FUNCTION_BY_TOKEN.get(name)
    if fn is None:
        raise UnboundNameError(f"unknown merge function {name!r}")
    if len(args) != 2:
        raise FidaSyntaxError(f"{name} takes exactly two operands")
    return apply_internal(fn, args[0], args[1])


def eval_fida(expr: FidaExpr | str, env: Mapping[str, HierarchicalPurposeSet]) -> HierarchicalPurposeSet:
    """Evaluate an expression over hierarchical operands.

    Infix operators act on the allowed and on the prohibited sets; precedence
    selections compare the allowed sets and take the winner whole, or both
    operands' union on a tie. Every operator and merge takes its purpose graph
    from the operands' tags alone, so operands tagged with different graphs
    are rejected and a precedence selection over untagged operands raises.
    Function calls dispatch to the thirteen binary merges (exactly two
    arguments) or to ``f_nary``.
    """
    if isinstance(expr, str):
        expr = parse_fida(expr)

    def infix(op: BasicOp, l: HierarchicalPurposeSet, r: HierarchicalPurposeSet):
        graph = _shared_graph((l, r))
        meaning = _MEANING[op]
        if isinstance(meaning, PrecedenceKind):
            # A selection is the winner's union with itself, or both sides' on a tie.
            winner = _precedence_winner(meaning, l.ap, r.ap, graph)
            if winner:
                l = r = l if winner < 0 else r
            meaning = or_
        return HierarchicalPurposeSet(meaning(l.ap, r.ap), meaning(l.pp, r.pp), graph=graph)

    return fold(expr, _binding(env, "set bound to"), _merge_call, infix)


def eval_fida_plain(
    expr: FidaExpr | str,
    env: Mapping[str, Iterable[str]],
    pg: PurposeGraph | None = None,
) -> PurposeSet:
    """Evaluate basic operators over plain purpose sets, pairs that prohibit nothing.

    Each set is tagged with `pg`, which only precedence selections need. Merge
    functions need real pairs, so any function call is refused.
    """
    if isinstance(expr, str):
        expr = parse_fida(expr)
    functions = expression_functions(expr)
    if functions:
        raise ConfigurationError(f"{min(functions)} needs hierarchical or party operands, not plain sets")
    pairs = {name: HierarchicalPurposeSet(frozenset(s), graph=pg) for name, s in env.items()}
    return eval_fida(expr, pairs).ap
