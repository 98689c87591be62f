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
pair that prohibits nothing, so one evaluator serves both. It compiles an
expression once into a flat program over operand slots (``compile_fida``)
and runs that over frozensets, or over masks under a graph's own encoding
(:attr:`~provpurpose.purposes.PurposeGraph.bits`). The merge steps use
``&``, ``|`` and ``^`` alone, so they run on either, as ``apply_internal``
and ``apply_nary`` run them over frozensets. A precedence selection encodes
sets under the graph's own encoding, whose bits run by rank, and ranks each
mask by its lowest or highest set bit. Every expression node compiles to
one step, so each merge folds exactly its own two operands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import partial, reduce
from operator import and_, attrgetter, or_, xor
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar, Union

from . import _docs
from .errors import (
    ConfigurationError,
    EmptyPurposeSetError,
    FidaSyntaxError,
    InputFormatError,
    MissingHierarchyLineError,
    UnboundNameError,
)
from .purposes import PurposeBits, PurposeGraph, PurposeSet

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


_SetOp = Callable[[Any, Any], Any]
_Meaning = Union[_SetOp, PrecedenceKind]
_NOTHING: PurposeSet = frozenset()


def _minus(x: Any, y: Any) -> Any:
    """`x` without what it shares with `y`, for sets and for masks alike."""
    return x ^ (x & y)


# What each operator does: a function that frozensets and masks share, or the
# ranked selection of its own name.
_MEANING: dict[BasicOp, _Meaning] = {
    BasicOp.UNION: or_,
    BasicOp.SUBTRACT: _minus,
    BasicOp.SYM_DIFF: xor,
    BasicOp.INTERSECT: and_,
    **{BasicOp(kind.value): kind for kind in PrecedenceKind},
}

# How tightly each operator binds in expression text; equal strengths associate left.
_BINDING: dict[BasicOp, int] = {
    **dict.fromkeys((BasicOp.UNION, BasicOp.SUBTRACT, BasicOp.SYM_DIFF), 1),
    **dict.fromkeys((BasicOp.INTERSECT, BasicOp.HIGH_MAX, BasicOp.LOW_MAX, BasicOp.HIGH_MIN, BasicOp.LOW_MIN), 2),
}


def _winner(kind: PrecedenceKind, x: Any, y: Any, tag: PurposeBits | PurposeGraph | None) -> int:
    """-1 when x wins, 1 when y wins, 0 on a tie.

    Every precedence selection comes here, so this is where the one graph
    rule lives: a tag is needed whatever the operands. An empty operand then
    loses without a rank comparison, so two empty operands tie. Sets tagged
    with their graph raise on an unknown purpose, the smallest one of x and
    then of y, and are encoded under the graph's own ``tag.bits``. There
    every bit is a member and the bits run by rank, so the two masks rank
    by their lowest or highest set bit.
    """
    if tag is None:
        raise ConfigurationError("precedence operators need a purpose graph")
    if not x or not y:
        return bool(y) - bool(x)
    if isinstance(tag, PurposeGraph):
        tag = tag.bits
        x, y = tag.encode(x), tag.encode(y)
    extreme, higher_wins = _RANKING[kind]
    rank = tag.least_rank if extreme is min else tag.greatest_rank
    k1, k2 = rank(x), rank(y)
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
    """Totalized selection, the plain view of the pair selection: an empty operand loses."""
    return _plain(kind, frozenset(s1), frozenset(s2), pg)


# -- hierarchical purpose sets --------------------------------------------------

@dataclass(frozen=True)
class HierarchicalPurposeSet:
    """Allowed and prohibited purposes, merged by rules that differ at a line.

    The one value expressions evaluate over: a plain purpose set is the pair
    that prohibits nothing. Each side is read as :func:`_docs.names` reads
    a set of names, as a party result's sides are. `graph`, never part
    of equality, is the purpose graph that merges cut at and precedence
    selections rank by; every operator rejects operands tagged with
    different graphs.
    """

    ap: PurposeSet = frozenset()
    pp: PurposeSet = frozenset()
    graph: PurposeGraph | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ap", _docs.names(self.ap, '"ap"'))
        object.__setattr__(self, "pp", _docs.names(self.pp, '"pp"'))


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

# What the merge steps work on: allowed and prohibited sides and a graph tag with
# the `high` part merges cut at: masks and their PurposeBits, or sets and their graph.
_Raw = tuple[Any, Any, Any]
_raw: Callable[[HierarchicalPurposeSet], _Raw] = attrgetter("ap", "pp", "graph")


def _pair_graph(g: Any, h: Any) -> Any:
    """The graph tag two operands share: at most one graph may tag them."""
    if h is None or h is g:
        return g
    if g is None:
        return h
    raise ConfigurationError("operands are tagged with different purpose graphs")


def _cut(high: Any, upper: Any, lower: Any) -> Any:
    """`upper` inside `high` and `lower` outside it."""
    return ((upper ^ lower) & high) ^ lower


def _merge(rule: tuple[_SetOp | None, ...], x: _Raw, y: _Raw) -> _Raw:
    """``f(x, y)`` for one rule row.

    The operands' tags must agree; then the prohibited sides combine, the
    allowed sides combine and the prohibited side leaves the allowed one.
    Cutting commutes with every operator, so a rule whose high and low
    functions differ combines both whole and cuts each side once at the
    tag's high part. f_boxdot's ``None`` is its P1 - P1.
    """
    high_combine, high_prohibit, low_combine, low_prohibit = rule
    tag = _pair_graph(x[2], y[2])
    ap, pp = low_combine(x[0], y[0]), low_prohibit(x[1], y[1])
    high = 0 if tag is None else tag.high
    if high and (high_combine is not low_combine or high_prohibit is not low_prohibit):
        ap = _cut(high, high_combine(x[0], y[0]), ap)
        pp = _cut(high, high_prohibit(x[1], y[1]) if high_prohibit else x[1] ^ x[1], pp)
    return _minus(ap, pp), pp, tag


def _merge_all(*values: _Raw) -> _Raw:
    """Merge two or more operands by the n-ary rule: each side folded above and
    below the line and cut, then the prohibited side leaves the allowed one."""
    if len(values) < 2:
        raise InputFormatError("n-ary merge needs at least two operands")
    tag = reduce(_pair_graph, [v[2] for v in values])
    high_combine, high_prohibit, low_combine, low_prohibit = _NARY_RULE
    aps, pps = [v[0] for v in values], [v[1] for v in values]
    ap, pp = reduce(low_combine, aps), reduce(low_prohibit, pps)
    if tag is not None and tag.high:
        ap, pp = _cut(tag.high, reduce(high_combine, aps), ap), _cut(tag.high, reduce(high_prohibit, pps), pp)
    return _minus(ap, pp), pp, tag


def _infix(meaning: _Meaning, l: _Raw, r: _Raw) -> _Raw:
    """An infix operator acts on the allowed and on the prohibited sides; a
    selection ranks the allowed sides and is the winner's union with itself,
    or both sides' on a tie."""
    tag = _pair_graph(l[2], r[2])
    if isinstance(meaning, PrecedenceKind):
        winner = _winner(meaning, l[0], r[0], tag)
        if winner:
            l = r = l if winner < 0 else r
        meaning = or_
    return meaning(l[0], r[0]), meaning(l[1], r[1]), tag


def _plain(meaning: _Meaning, x: Any, y: Any, tag: Any) -> Any:
    """An operator over two sets or masks: the allowed side of the infix operator over pairs that prohibit nothing."""
    return _infix(meaning, (x, 0, tag), (y, 0, tag))[0]


def apply_internal(
    fn: InternalFunction, si: HierarchicalPurposeSet, sj: HierarchicalPurposeSet
) -> HierarchicalPurposeSet:
    """Merge two hierarchical sets with one of the thirteen functions."""
    return HierarchicalPurposeSet(*_merge(_MERGE_RULES[fn], _raw(si), _raw(sj)))


def apply_nary(sets: Sequence[HierarchicalPurposeSet]) -> HierarchicalPurposeSet:
    """Merge two or more operands by the rule (+, +, ^-, &)."""
    return HierarchicalPurposeSet(*_merge_all(*map(_raw, sets)))


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


def _post_order(root: Any, expand: Callable[[Any], tuple[Any, Iterable[Any]]]) -> list[Any]:
    """The items `expand` makes of the nodes of a tree, each node's after its children's, left to right.

    `expand` maps a node to its item and its children. The walk keeps its
    own stack, so no tree is too deep: each node's item is taken before its
    children, which are popped right to left; reversed, that is the
    post-order a recursive walk visits.
    """
    items: list[Any] = []
    todo = [root]
    while todo:
        item, children = expand(todo.pop())
        items.append(item)
        todo.extend(children)
    items.reverse()
    return items


def _run(code: Sequence[Any], load: Callable[[Any], T]) -> T:
    """Run post-order steps on a value stack: a step ``(n, action)`` replaces
    the top n values with ``action(*values)``, and any other step pushes
    ``load(step)``."""
    values: list[T] = []
    for step in code:
        if type(step) is not tuple:
            values.append(load(step))
            continue
        arity, action = step
        if arity == 2:
            right = values.pop()
            values[-1] = action(values[-1], right)
        else:
            start = len(values) - arity
            args = values[start:]
            del values[start:]
            values.append(action(*args))
    return values[0]


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
    def expand(node: FidaExpr) -> tuple[Any, tuple[FidaExpr, ...]]:
        kind = type(node)
        if kind is SetRef:
            return node.name, ()
        if kind is BinaryOp:
            return (2, partial(infix, node.op)), (node.left, node.right)
        return (len(node.args), lambda *args: call(node.name, list(args))), node.args

    return _run(_post_order(expr, expand), ref)


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

# A program step: a slot number pushes that operand, (n, action) replaces the top
# n values with action(*values). Calls and infix operators share one step each.
# A function's step is (2, action) for exactly two operands, or (None, action)
# for any number.
_Step = Union[int, tuple[int | None, Any]]
_MERGE_STEPS: dict[str, _Step] = {
    **{fn.value: (2, partial(_merge, rule)) for fn, rule in _MERGE_RULES.items()},
    "f_nary": (None, _merge_all),
}
_INFIX_STEPS: dict[BasicOp, _Step] = {op: (2, partial(_infix, meaning)) for op, meaning in _MEANING.items()}


def _fail(error: type[Exception], message: str, *_: _Raw) -> _Raw:
    raise error(message)


@dataclass(frozen=True)
class MergeProgram:
    """An expression compiled against operand slots by the compiler of :func:`compile_fida`.

    `names[i]` is the name of slot i. `code` holds one step per expression
    node, in the post-order :func:`fold` walks.
    """

    names: tuple[str, ...]
    code: tuple[_Step, ...]


def compile_fida(expr: FidaExpr, names: Sequence[str]) -> MergeProgram:
    """Compile an expression once against the operand names, in slot order.

    A name becomes its slot and a call or operator the shared step of its
    rule. A fault in the expression (an unbound name, an unknown function, a
    wrong number of operands) becomes a step that raises when the evaluation
    reaches it, so faults are raised in the order an evaluation meets them.
    """
    return _compile(expr, names, _MERGE_STEPS, _INFIX_STEPS, ("set bound to", "merge function"))


def _compile(
    expr: FidaExpr, names: Sequence[str], calls: dict[str, _Step], infix: dict[BasicOp, _Step], nouns: tuple[str, str]
) -> MergeProgram:
    """:func:`compile_fida` over the steps of `calls` and `infix`; `nouns` name an operand and a function in faults."""
    slots = {name: i for i, name in enumerate(names)}

    def expand(node: FidaExpr) -> tuple[_Step, tuple[FidaExpr, ...]]:
        kind = type(node)
        if kind is SetRef:
            slot = slots.get(node.name)
            return (0, partial(_fail, UnboundNameError, f"no {nouns[0]} {node.name!r}")) if slot is None else slot, ()
        if kind is BinaryOp:
            return infix[node.op], (node.left, node.right)
        step, arity = calls.get(node.name), len(node.args)
        if step is None:
            step = (arity, partial(_fail, UnboundNameError, f"unknown {nouns[1]} {node.name!r}"))
        elif step[0] is None:
            step = (arity, step[1])
        elif step[0] != arity:
            step = (arity, partial(_fail, FidaSyntaxError, f"{node.name} takes exactly two operands"))
        return step, node.args

    return MergeProgram(tuple(names), tuple(_post_order(expr, expand)))


def eval_fida(
    expr: FidaExpr | str | MergeProgram,
    env: Mapping[str, HierarchicalPurposeSet] | Sequence[_Raw] | Sequence[tuple[int, int]],
    graph: PurposeGraph | None = None,
) -> HierarchicalPurposeSet | tuple[int, int]:
    """Evaluate an expression over hierarchical operands.

    Infix operators act on the allowed and on the prohibited sets; precedence
    selections compare the allowed sets and take the winner whole, or both
    operands' union on a tie. Every operator and merge takes its purpose graph
    from the operands' tags alone, so operands tagged with different graphs
    are rejected and a precedence selection over untagged operands raises.
    Function calls dispatch to the thirteen binary merges (exactly two
    arguments) or to ``f_nary``.

    An expression is compiled against `env`'s names, then run. A compiled
    :class:`MergeProgram` takes its operands in slot order: ``(ap, pp, graph)``
    triples of sets, or with `graph` given ``(ap, pp)`` masks under
    ``graph.bits``. The program runs over the operands as they come: sets,
    taken as frozensets, give the result's frozensets, masks the result's
    ``(ap, pp)`` masks.
    """
    if isinstance(expr, MergeProgram):
        program = expr
    else:
        program = compile_fida(parse_fida(expr) if isinstance(expr, str) else expr, list(env))
        env = [_raw(s) for s in env.values()]
    if graph is not None:
        codec = graph.bits
        ap, pp, _ = _run(program.code, [(ap, pp, codec) for ap, pp in env].__getitem__)
        return ap, pp
    operands = [(frozenset(ap), frozenset(pp), g) for ap, pp, g in env]
    return HierarchicalPurposeSet(*_run(program.code, operands.__getitem__))


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
    return eval_fida(compile_fida(expr, list(env)), [(frozenset(s), _NOTHING, pg) for s in env.values()]).ap
