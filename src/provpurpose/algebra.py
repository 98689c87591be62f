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
totalized variant is used instead where an empty operand simply loses.

Hierarchical merges
-------------------

A :class:`HierarchicalPurposeSet` carries allowed and prohibited purposes
split into high/low hierarchy parts (HA, HP, LA, LP). Thirteen named binary
merge functions combine two of them; each follows the same shape on both
levels: combine the allowed parts, combine the prohibited parts, and remove
the latter from the former. The function table below (combine op, prohibit
op, per level) is exhaustive:

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
parts propagate into the result so later merges keep honoring them.

``apply_nary`` merges any number of operands in one step: high side = union
of allowed minus union of prohibited; low side = symmetric-difference fold of
allowed minus intersection fold of prohibited.

Expressions
-----------

Merge expressions combine named sets with infix operators and function calls::

    (S1 & S2) + f_dotplus(S3, S4)

``&`` and the precedence selections bind tighter than ``+``, ``-``, ``^-``;
equal-precedence operators associate left. Unicode spellings of the operators
(⊟ − ↑△ ↓△ ↑▽ ↓▽ ▷ △ ◁ ▽) are accepted and normalized: the triangle forms
bind to upmax (▷, △) and downmin (◁, ▽). Infix operators between
hierarchical operands act componentwise on (HA, HP, LA, LP); precedence
selections compare operands by their combined allowed parts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .errors import (
    ConfigurationError,
    EmptyPurposeSetError,
    FidaSyntaxError,
    InputFormatError,
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


def _precedence_winner(
    kind: PrecedenceKind, s1: PurposeSet, s2: PurposeSet, pg: PurposeGraph | None
) -> int:
    """-1 when s1 wins, 1 when s2 wins, 0 on a tie.

    An empty operand loses without a rank comparison, so two empty operands
    tie; only two non-empty operands need `pg`.
    """
    if not s1 or not s2:
        return bool(s2) - bool(s1)
    if pg is None:
        raise ConfigurationError("precedence operators need a purpose graph")
    if kind in (PrecedenceKind.HIGH_MAX, PrecedenceKind.LOW_MAX):
        k1 = min(pg.rank_of(p) for p in s1)
        k2 = min(pg.rank_of(p) for p in s2)
    else:
        k1 = max(pg.rank_of(p) for p in s1)
        k2 = max(pg.rank_of(p) for p in s2)
    if k1 == k2:
        return 0
    higher_wins = kind in (PrecedenceKind.HIGH_MAX, PrecedenceKind.HIGH_MIN)
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


# -- hierarchical purpose sets --------------------------------------------------

@dataclass(frozen=True)
class HierarchicalPurposeSet:
    """Allowed/prohibited purposes split into high/low hierarchy parts.

    `graph` remembers which purpose graph the split used; it never takes part
    in equality and exists so merges can reject operands split under
    different graphs.
    """

    ha: PurposeSet = frozenset()
    hp: PurposeSet = frozenset()
    la: PurposeSet = frozenset()
    lp: PurposeSet = frozenset()
    graph: PurposeGraph | None = field(default=None, compare=False, repr=False)

    def allowed(self) -> PurposeSet:
        return self.ha | self.la

    def prohibited(self) -> PurposeSet:
        return self.hp | self.lp

    @classmethod
    def empty(cls) -> "HierarchicalPurposeSet":
        return cls()


def split_result(pg: PurposeGraph, ap: Iterable[str], pp: Iterable[str]) -> HierarchicalPurposeSet:
    """Split allowed and prohibited sets at the graph's hierarchy line."""
    ha, la = pg.split_static(ap)
    hp, lp = pg.split_static(pp)
    return HierarchicalPurposeSet(ha, hp, la, lp, graph=pg)


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


_SET_OPS: dict[str, Callable[[PurposeSet, PurposeSet], PurposeSet]] = {
    "+": op_union,
    "&": op_intersection,
    "^-": op_difference,
    "-": op_subtraction,
}

# (high combine, high prohibit, low combine, low prohibit); see the module table.
_MERGE_RULES: dict[InternalFunction, tuple[str, str, str, str]] = {
    InternalFunction.OPLUS: ("&", "-", "+", "-"),
    InternalFunction.OMINUS: ("&", "&", "+", "&"),
    InternalFunction.OTIMES: ("&", "-", "+", "&"),
    InternalFunction.OSLASH: ("&", "&", "+", "-"),
    InternalFunction.ODOT: ("+", "-", "+", "&"),
    InternalFunction.UPLUS: ("+", "-", "+", "&"),
    InternalFunction.DOTPLUS: ("+", "&", "+", "&"),
    InternalFunction.DCAP: ("+", "&", "&", "&"),
    InternalFunction.DCUP: ("+", "&", "&", "-"),
    InternalFunction.BOXTIMES: ("^-", "-", "^-", "&"),
    InternalFunction.BOXDOT: ("^-", "-", "+", "&"),
    InternalFunction.BOXPLUS: ("+", "-", "^-", "&"),
    InternalFunction.DIVTIMES: ("^-", "-", "&", "&"),
}

_FUNCTION_BY_TOKEN = {fn.value: fn for fn in InternalFunction}


def _check_same_graph(si: HierarchicalPurposeSet, sj: HierarchicalPurposeSet) -> PurposeGraph | None:
    if si.graph is not None and sj.graph is not None and si.graph is not sj.graph:
        raise ConfigurationError("operands were split under different purpose graphs")
    return si.graph or sj.graph


def apply_internal(
    fn: InternalFunction, si: HierarchicalPurposeSet, sj: HierarchicalPurposeSet
) -> HierarchicalPurposeSet:
    """Merge two hierarchical sets with one of the thirteen functions."""
    graph = _check_same_graph(si, sj)
    high_combine, high_prohibit, low_combine, low_prohibit = _MERGE_RULES[fn]
    # f_boxdot's high prohibit combines the left prohibited part with itself.
    hp_right = si.hp if fn is InternalFunction.BOXDOT else sj.hp
    hp = _SET_OPS[high_prohibit](si.hp, hp_right)
    lp = _SET_OPS[low_prohibit](si.lp, sj.lp)
    ha = op_subtraction(_SET_OPS[high_combine](si.ha, sj.ha), hp)
    la = op_subtraction(_SET_OPS[low_combine](si.la, sj.la), lp)
    return HierarchicalPurposeSet(ha, hp, la, lp, graph=graph)


def apply_nary(sets: Sequence[HierarchicalPurposeSet]) -> HierarchicalPurposeSet:
    """Merge any number of operands at once.

    High side: union of allowed minus union of prohibited. Low side:
    symmetric-difference fold of allowed minus intersection fold of
    prohibited.
    """
    if len(sets) < 2:
        raise InputFormatError("n-ary merge needs at least two operands")
    graph = None
    for s in sets:
        if s.graph is not None:
            if graph is not None and s.graph is not graph:
                raise ConfigurationError("operands were split under different purpose graphs")
            graph = s.graph
    hp = reduce(op_union, (s.hp for s in sets))
    lp = reduce(op_intersection, (s.lp for s in sets))
    ha = op_subtraction(reduce(op_union, (s.ha for s in sets)), hp)
    la = op_subtraction(reduce(op_difference, (s.la for s in sets)), lp)
    return HierarchicalPurposeSet(ha, hp, la, lp, graph=graph)


# -- expression syntax ----------------------------------------------------------

class BasicOp(str, Enum):
    UNION = "+"
    SUBTRACT = "-"
    SYM_DIFF = "^-"
    INTERSECT = "&"
    HIGH_MAX = "upmax"
    LOW_MAX = "downmax"
    HIGH_MIN = "upmin"
    LOW_MIN = "downmin"


_TIGHT_OPS = {BasicOp.INTERSECT, BasicOp.HIGH_MAX, BasicOp.LOW_MAX, BasicOp.HIGH_MIN, BasicOp.LOW_MIN}
_LOOSE_OPS = {BasicOp.UNION, BasicOp.SUBTRACT, BasicOp.SYM_DIFF}

_PRECEDENCE_OF_OP = {
    BasicOp.HIGH_MAX: PrecedenceKind.HIGH_MAX,
    BasicOp.LOW_MAX: PrecedenceKind.LOW_MAX,
    BasicOp.HIGH_MIN: PrecedenceKind.HIGH_MIN,
    BasicOp.LOW_MIN: PrecedenceKind.LOW_MIN,
}

_WORD_OPS = {op.value for op in _PRECEDENCE_OF_OP}

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


# Every alias and operator spelling, then punctuation, then names; anything else
# is one unexpected character. Names continue with \w (isalnum() or "_"), but
# only isalpha() or "_" may start one, which _tokenize checks.
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<op>" + "|".join(map(re.escape, _UNICODE_ALIASES)) + r"|\^-|[-+&])"
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
            tokens.append(_Token("op" if value in _WORD_OPS else "name", value, pos))
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

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise FidaSyntaxError(f"expected {kind!r}, found {tok.value!r}", tok.pos)
        return tok

    def parse(self) -> FidaExpr:
        expr = self.expr()
        tok = self.peek()
        if tok is not None:
            raise FidaSyntaxError(f"unexpected {tok.value!r}", tok.pos)
        return expr

    def expr(self) -> FidaExpr:
        node = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op":
                return node
            op = BasicOp(tok.value)
            if op not in _LOOSE_OPS:
                return node
            self.take()
            node = BinaryOp(op, node, self.term())

    def term(self) -> FidaExpr:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op":
                return node
            op = BasicOp(tok.value)
            if op not in _TIGHT_OPS:
                return node
            self.take()
            node = BinaryOp(op, node, self.factor())

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
            self.expect(")")
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


def apply_basic(
    op: BasicOp, s1: PurposeSet, s2: PurposeSet, pg: PurposeGraph | None
) -> PurposeSet:
    """One basic operator over plain sets: plain and party expressions, F1-F8."""
    kind = _PRECEDENCE_OF_OP.get(op)
    if kind is None:
        return _SET_OPS[op.value](s1, s2)
    if pg is None:
        raise ConfigurationError("precedence operators need a purpose graph")
    return precedence_total(kind, s1, s2, pg)


def _componentwise(
    op: Callable[[PurposeSet, PurposeSet], PurposeSet],
    l: HierarchicalPurposeSet,
    r: HierarchicalPurposeSet,
) -> HierarchicalPurposeSet:
    return HierarchicalPurposeSet(
        op(l.ha, r.ha), op(l.hp, r.hp), op(l.la, r.la), op(l.lp, r.lp),
        graph=_check_same_graph(l, r),
    )


def _merge_call(name: str, args: list[HierarchicalPurposeSet]) -> HierarchicalPurposeSet:
    if name == "f_nary":
        return apply_nary(args)
    fn = _FUNCTION_BY_TOKEN.get(name)
    if fn is None:
        raise UnboundNameError(f"unknown merge function {name!r}")
    if len(args) != 2:
        raise FidaSyntaxError(f"{name} takes exactly two operands")
    return apply_internal(fn, args[0], args[1])


def eval_fida(
    expr: FidaExpr | str,
    env: Mapping[str, HierarchicalPurposeSet],
    pg: PurposeGraph | None = None,
) -> HierarchicalPurposeSet:
    """Evaluate an expression over hierarchical operands.

    Infix operators act componentwise; precedence selections compare
    operands by their combined allowed parts and need `pg` (or operands that
    carry their split graph). Function calls dispatch to the thirteen binary
    merges (exactly two arguments) or to ``f_nary``.
    """
    if isinstance(expr, str):
        expr = parse_fida(expr)

    def infix(op: BasicOp, l: HierarchicalPurposeSet, r: HierarchicalPurposeSet):
        kind = _PRECEDENCE_OF_OP.get(op)
        if kind is None:
            return _componentwise(_SET_OPS[op.value], l, r)
        winner = _precedence_winner(kind, l.allowed(), r.allowed(), pg or l.graph or r.graph)
        return l if winner < 0 else r if winner > 0 else _componentwise(op_union, l, r)

    return fold(expr, _binding(env, "set bound to"), _merge_call, infix)


def eval_fida_plain(
    expr: FidaExpr | str,
    env: Mapping[str, PurposeSet],
    pg: PurposeGraph | None = None,
) -> PurposeSet:
    """Evaluate an expression of basic operators over plain purpose sets."""
    if isinstance(expr, str):
        expr = parse_fida(expr)

    def call(name: str, args: list[PurposeSet]) -> PurposeSet:
        raise ConfigurationError(f"{name} needs hierarchical or party operands, not plain sets")

    ref = _binding(env, "set bound to")
    return fold(expr, ref, call, lambda op, a, b: apply_basic(op, a, b, pg))
