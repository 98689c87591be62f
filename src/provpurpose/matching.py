"""Four-valued condition matching against provenance graphs.

Match results form a chain, best to worst:

* ``FULL``: the graph embeds the whole pattern: vertex types, vertex names,
  every attribute constraint, and every edge with its label.
* ``NAMES``: an embedding satisfies types and names (and edges), but no
  embedding also satisfies all attribute constraints.
* ``TYPES``: an embedding satisfies vertex types (and edges) only.
* ``NONE``: not even the typed shape is present.

A partition is searched once, for FULL. Its lower levels are the value of its
:attr:`~ProvenancePartition.coarser` partition, constraints or names dropped.
Equal patterns, decoded or derived, are one object from one table, and a leaf
memo keeps each object's value for a decision, so each is searched once in it.
A party's constrained partitions that share a coarser partition form a group
(:func:`partition_groups`), compiled once into a bit-parallel grader:
:func:`match_group` enumerates the coarser's embeddings once per memo, each as
the attribute payloads of its vertices, and grades the whole group against
them in one pass instead of searching, one bit per partition.
Attribute payloads are read only through :meth:`ProvenanceGraph._payload`,
so how a graph stores them is known to :mod:`provenance` alone.

Conjunction is ``min`` and disjunction is ``max`` on that chain; only ``FULL``
ever grants purposes downstream.

An embedding here is an injective mapping of pattern vertices to graph
vertices that preserves every pattern edge, matching edge labels exactly
(wildcard pattern edges only require some edge in the right direction).
A partition search that takes more than :data:`MAX_SEARCH_STEPS` steps
raises :class:`SearchLimitError` instead of returning a value; an enumeration
that does is dropped, and each partition of the group is searched on its
own, at the group's place.

Path patterns are a linear sublanguage: a comma-separated list of steps where
``\\v*`` is a wildcard absorbing any run of intermediate vertices and every
other step is ``LABEL|NAME``. A step matches a position on a directed walk
when the vertex name equals NAME, or the edge traversed into the position
carries LABEL as its label or refined label (the walk's first vertex may use
any of its outgoing edges instead). Path matching is two-valued: FULL or NONE.

Targets are an XPath-like spelling of a chain of vertex constraints:
``/(agent|artifact|process)[name="N"]?([ITEM op VALUE])*`` repeated. A target
desugars to a path-shaped partition whose edges are wildcards.
"""

from __future__ import annotations

import re
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from datetime import datetime
from enum import Enum, IntEnum
from functools import cache, cached_property
from operator import contains, eq, ge, gt, itemgetter, le, lt, ne
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from . import _docs
from ._dagutil import reachable_from
from .errors import InputFormatError, PatternSyntaxError, SearchLimitError, TypeMismatchError
from .provenance import AttrValue, EdgeLabel, ProvenanceGraph, VertexType, _attr_value, vertex_type_from_json


class MatchValue(IntEnum):
    """Totally ordered match quality; FULL > NAMES > TYPES > NONE."""

    NONE = 0
    TYPES = 1
    NAMES = 2
    FULL = 3

    @property
    def label(self) -> str:
        return _LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "MatchValue":
        for value, text in _LABELS.items():
            if text == label:
                return value
        raise ValueError(f"unknown match label {label!r}")


_LABELS = {
    MatchValue.FULL: "full",
    MatchValue.NAMES: "names-only",
    MatchValue.TYPES: "types-only",
    MatchValue.NONE: "none",
}


def match_and(*values: MatchValue) -> MatchValue:
    """Conjunction: the worst value wins."""
    return min(values)


def match_or(*values: MatchValue) -> MatchValue:
    """Disjunction: the best value wins."""
    return max(values)


class Predicate(str, Enum):
    EQ = "="
    NEQ = "!="
    LT = "<"
    LEQ = "<="
    GT = ">"
    GEQ = ">="
    CONTAINS = "~"


# What each predicate means; `~` tests whether the right string occurs in the left.
_COMPARE: dict[Predicate, Callable[[Any, Any], bool]] = {
    Predicate.EQ: eq,
    Predicate.NEQ: ne,
    Predicate.LT: lt,
    Predicate.LEQ: le,
    Predicate.GT: gt,
    Predicate.GEQ: ge,
    Predicate.CONTAINS: contains,
}


def _kind(value: AttrValue) -> str | None:
    exact = type(value)  # an exact int or str, the common values, answer from their type
    if exact is int:
        return "int"
    if exact is str:
        return "str"
    if value is None or isinstance(value, bool):
        return None
    if isinstance(value, int):
        return "int"
    if isinstance(value, str):
        return "str"
    if isinstance(value, datetime):
        return "naive timestamp" if value.utcoffset() is None else "aware timestamp"
    return None


def eval_predicate(pred: Predicate, left: AttrValue, right: AttrValue) -> bool:
    """Apply a binary predicate to two attribute values.

    Values must be of the same kind (int, str, naive timestamp or aware
    timestamp); strings order lexicographically and timestamps
    chronologically. Mixed kinds, a naive against an aware timestamp
    included, raise :class:`TypeMismatchError` under every predicate.
    """
    lk, rk = _kind(left), _kind(right)
    if lk is None or rk is None or lk != rk:
        raise TypeMismatchError(
            f"cannot apply {pred.value!r} to {lk or type(left).__name__} and {rk or type(right).__name__}"
        )
    if pred is Predicate.CONTAINS and lk != "str":
        raise TypeMismatchError(f"cannot apply {pred.value!r} to {lk} values")
    return _COMPARE[pred](left, right)


# -- partitions ---------------------------------------------------------------

@dataclass(frozen=True)
class AttrConstraint:
    """An attribute test, ``item pred operand``, with `kind` and `test` derived once for the search.

    `pred` is a :class:`Predicate` or its text, stored as the member,
    `item` is read as :func:`_docs.text` reads a scalar, and `operand` as a
    decoded attribute value: a str, an int that is not a bool, or a
    datetime. `kind` is the kind of value the operand compares with, or
    None when none can satisfy the test (``~`` on a non-string).
    """

    item: str
    pred: Predicate
    operand: AttrValue
    kind: str | None = field(init=False, compare=False, repr=False)
    test: Callable[[Any, Any], bool] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        kind = _kind(_attr_value(self.operand))  # read first, as the loader decodes it first
        pred = _docs.member(Predicate, self.pred, "predicate")
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "item", _docs.text(self.item, "attribute constraint item"))
        object.__setattr__(self, "kind", None if pred is Predicate.CONTAINS and kind != "str" else kind)
        object.__setattr__(self, "test", _COMPARE[pred])


@dataclass(frozen=True)
class PatternVertex:
    """A vertex constraint: type always, name and attributes optionally.

    `vtype` is read by :func:`vertex_type_from_json`, as
    :meth:`ProvenanceGraph.add_vertex` reads it, and stored as the member;
    `ref` and `name` as :func:`_docs.text` reads a scalar; `constraints` as
    an array of :class:`AttrConstraint`, stored as a tuple.
    """

    ref: str
    vtype: VertexType
    name: str | None = None
    constraints: tuple[AttrConstraint, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ref", _docs.text(self.ref, 'partition vertex "ref"'))
        object.__setattr__(self, "vtype", vertex_type_from_json(self.vtype))
        name = None if self.name is None else _docs.text(self.name, 'partition vertex "name"')
        object.__setattr__(self, "name", name)
        constraints = _docs.items(self.constraints, AttrConstraint, '"attrs"', "attribute constraints")
        object.__setattr__(self, "constraints", constraints)


@dataclass(frozen=True, slots=True)
class PatternEdge:
    """An edge constraint between pattern refs; label None means wildcard.

    Any other `label` is an :class:`EdgeLabel` or its value text, stored as
    the member, as :meth:`ProvenanceGraph.add_edge` reads it. The ends are
    read as :func:`_docs.text` reads a scalar. `text` is the
    label's text, derived once, which the search compares with the label
    texts a graph stores; None for a wildcard. Slotted, so the derived field
    costs no memory over an edge with an instance dict.
    """

    src: str
    dst: str
    label: EdgeLabel | None = None
    text: str | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        label = None if self.label is None else _docs.member(EdgeLabel, self.label, "edge label")
        object.__setattr__(self, "src", _docs.text(self.src, "partition edge end"))
        object.__setattr__(self, "dst", _docs.text(self.dst, "partition edge end"))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "text", None if label is None else label.value)


class _Placement(NamedTuple):
    """A vertex of a search plan, with its edges to vertices placed before it."""

    vertex: PatternVertex
    anchor: PatternEdge | None  # draws the candidates; None for the first vertex
    checks: tuple[PatternEdge, ...]


@dataclass(frozen=True)
class ProvenancePartition:
    """A connected pattern over vertices and labeled edges, each an array stored as a tuple."""

    vertices: tuple[PatternVertex, ...]
    edges: tuple[PatternEdge, ...] = ()

    def __post_init__(self) -> None:
        vertices = _docs.items(self.vertices, PatternVertex, "partition vertices", "pattern vertices")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", _docs.items(self.edges, PatternEdge, "partition edges", "pattern edges"))
        if not self.vertices:
            raise PatternSyntaxError("partition needs at least one vertex")
        refs = [v.ref for v in self.vertices]
        if len(set(refs)) != len(refs):
            raise PatternSyntaxError("partition vertex refs must be unique")
        known = set(refs)
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise PatternSyntaxError(f"edge {e.src!r} -> {e.dst!r} references unknown refs")
        # connectivity, ignoring edge direction
        adjacency: dict[str, set[str]] = {r: set() for r in refs}
        for e in self.edges:
            adjacency[e.src].add(e.dst)
            adjacency[e.dst].add(e.src)
        if reachable_from(refs[0], adjacency) != known:
            raise PatternSyntaxError("partition must be connected")

    @cached_property
    def plan(self) -> tuple[_Placement, ...]:
        """The search order: one placement per vertex, the first without an anchor.

        Derived once, on the first search. Connectivity comes first, as in
        VF2: the most selective vertex (named, then the most constraints)
        leads, and every later one is the most selective vertex joined by an
        edge to one already placed. That edge, a labelled one if there is
        one, is its anchor; its other edges to placed vertices are checked.
        A self-loop pattern edge is never checked; match values have never
        depended on one.
        """
        def selectivity(pv: PatternVertex) -> tuple[bool, int]:
            return pv.name is not None, len(pv.constraints)

        edges = [e for e in self.edges if e.src != e.dst]
        first = max(self.vertices, key=selectivity)
        placed = {first.ref}
        plan = [_Placement(first, None, ())]
        while len(plan) < len(self.vertices):
            frontier = {e.src for e in edges if e.dst in placed} | {e.dst for e in edges if e.src in placed}
            frontier -= placed
            pv = max((v for v in self.vertices if v.ref in frontier), key=selectivity)
            links = [
                e for e in edges
                if (e.src == pv.ref and e.dst in placed) or (e.dst == pv.ref and e.src in placed)
            ]
            anchor = next((e for e in links if e.label is not None), links[0])
            links.remove(anchor)
            placed.add(pv.ref)
            plan.append(_Placement(pv, anchor, tuple(links)))
        return tuple(plan)

    @cached_property
    def coarser(self) -> tuple[ProvenancePartition, MatchValue] | None:
        """The partition one level down, and the level its FULL value stands for.

        With the attribute constraints dropped it stands for NAMES; a
        partition without constraints drops its names instead, and that
        stands for TYPES. One with neither has no coarser (None). It is the
        one object of its value (see :func:`_intern`), held here as long as
        this partition lives, so a leaf memo may key its value by identity.
        """
        if any(v.constraints for v in self.vertices):
            vertices, level = tuple(PatternVertex(v.ref, v.vtype, v.name) for v in self.vertices), _NAMES
        elif any(v.name is not None for v in self.vertices):
            vertices, level = tuple(PatternVertex(v.ref, v.vtype) for v in self.vertices), _TYPES
        else:
            return None
        return _intern(ProvenancePartition(vertices, self.edges)), level


#: The one object of each distinct pattern, keyed by its type and compared fields; it holds none alive.
_INTERNED: weakref.WeakValueDictionary[tuple[Any, ...], Any] = weakref.WeakValueDictionary()


@cache
def _compared_fields(kind: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(kind) if f.compare)


def _intern(pattern: Any) -> Any:
    """The one live object equal to `pattern`, a hashable pattern that a policy or a condition holds."""
    kind = type(pattern)
    return _INTERNED.setdefault((kind, *map(pattern.__getattribute__, _compared_fields(kind))), pattern)


#: What one decision has found. A condition's or a partition's match value
#: is keyed by its identity, and a group's coarser partition's embeddings
#: (see :func:`match_group`), or `_TOO_MANY` where they take too many
#: steps, by its negated identity.
#: Every key is an object that a policy tree or a condition holds, so no
#: other object takes its identity in a decision: a query condition's
#: per-request partition is never a key, nor interned.
LeafMemo = dict[int, Any]
_TOO_MANY = "too many steps"


#: Candidates one partition search may draw for pattern vertices after the
#: first before it gives up with :class:`SearchLimitError`.
MAX_SEARCH_STEPS = 100_000

# Looking up an enum member costs a call on Python 3.11; matching reads these per call.
_FULL, _NAMES, _TYPES, _NONE = MatchValue.FULL, MatchValue.NAMES, MatchValue.TYPES, MatchValue.NONE
_VALUES = tuple(MatchValue)  # each value at its number, as 2 packed bits read it


def _holding(pv: PatternVertex, found: Iterable[str], graph: ProvenanceGraph) -> Iterator[str]:
    """The vertices of `found` whose payloads hold every constraint of `pv`; a missing or incomparable value fails.

    Payloads are read in place by :meth:`ProvenanceGraph._payload`, bound
    once. A generator costs one call per candidate, the reader's, where a
    check function per candidate that called the reader would cost two.
    """
    payload, constraints = graph._payload, pv.constraints
    for vid in found:
        attrs = payload(vid)
        for c in constraints:
            value = attrs.get(c.item)
            if c.kind is None or _kind(value) != c.kind or not c.test(value, c.operand):
                break
        else:
            yield vid


def _has_edge(graph: ProvenanceGraph, src: str, dst: str, label: str | None) -> bool:
    """Whether an edge with the label text, or any edge if it is None, leads from src to dst."""
    for e in graph._out.get(src, ()):
        if e[1] == dst and (label is None or e[2] == label):
            return True
    return False


def _candidates(graph: ProvenanceGraph, placed: dict[str, str], placement: _Placement) -> Iterator[str]:
    """Graph vertices that may stand for a plan entry's vertex.

    The first vertex's come from the graph's type/name index. A later
    vertex's are the ends of its placed anchor's edges, as the anchor
    demands, of its type and name. Constraints are checked last, lazily,
    by :func:`_holding`.
    """
    pv, anchor, _ = placement
    name = pv.name
    if anchor is None:
        found = graph.ids_of(pv.vtype, name)
    else:
        forward = anchor.dst == pv.ref
        label, vertices, vtype = anchor.text, graph._vertices, pv.vtype
        found = []
        for e in graph._out.get(placed[anchor.src], ()) if forward else graph._in.get(placed[anchor.dst], ()):
            vid = e[1] if forward else e[0]
            gv = vertices[vid]
            if (label is None or e[2] == label) and gv.vtype is vtype and (name is None or gv.name == name):
                found.append(vid)
    return _holding(pv, found, graph) if pv.constraints and found else iter(found)


def _search(partition: ProvenancePartition, graph: ProvenanceGraph, found: list[tuple[str, ...]] | None) -> bool:
    """Whether some injective, edge-preserving placement of the whole pattern exists.

    One backtracking loop over a stack of candidate iterators, one per plan
    entry up to the one being placed; `placed` maps pattern refs to graph
    vertices in plan order. Given a `found` list, the search appends every
    placement to it, as its graph vertices in plan order, and goes on to the
    end. Each candidate drawn for a vertex after the first is a step; past
    :data:`MAX_SEARCH_STEPS` steps the search raises
    :class:`SearchLimitError`, since a guessed value would change decisions.
    """
    plan = partition.plan
    placed: dict[str, str] = {}
    pending = [_candidates(graph, placed, plan[0])]
    steps = 0
    while pending:
        pv, _, checks = plan[len(placed)]
        for vid in pending[-1]:
            if placed:
                steps += 1
                if steps > MAX_SEARCH_STEPS:
                    raise SearchLimitError(f"partition search gave up after {MAX_SEARCH_STEPS} steps")
                if vid in placed.values():
                    continue
            placed[pv.ref] = vid
            if not checks or all(_has_edge(graph, placed[e.src], placed[e.dst], e.text) for e in checks):
                break
            del placed[pv.ref]
        else:
            pending.pop()
            if placed:
                placed.popitem()
            continue
        if len(placed) < len(plan):
            pending.append(_candidates(graph, placed, plan[len(placed)]))
            continue
        if found is None:
            return True
        found.append(tuple(placed.values()))
        placed.popitem()  # the last vertex draws its next candidate
    return False


def _find_embedding(partition: ProvenancePartition, graph: ProvenanceGraph) -> bool:
    """Whether the partition has an embedding: the search stops at the first."""
    return _search(partition, graph, None)


def _all_embeddings(partition: ProvenancePartition, graph: ProvenanceGraph) -> list[list[Mapping[str, AttrValue]]] | None:
    """Every embedding, as the payloads of its vertices in plan order; None when they take too many steps.

    Each vertex's payload is read once, in place by :meth:`ProvenanceGraph._payload`.
    """
    found: list[tuple[str, ...]] = []
    try:
        _search(partition, graph, found)
    except SearchLimitError:
        return None
    payloads = {vid: graph._payload(vid) for vid in set().union(*found)}
    return [[payloads[vid] for vid in embedding] for embedding in found]


#: For each ordered test, how its family finds the members holding on a value
#: v among operands sorted ascending: the bisection of v, and whether they lie
#: at and above that index (a suffix) or below it (a prefix).
_ORDERED: dict[Callable[[Any, Any], bool], tuple[Callable[..., int], bool]] = {
    lt: (bisect_right, True),  # v < operand
    le: (bisect_left, True),  # v <= operand
    gt: (bisect_left, False),  # v > operand
    ge: (bisect_right, False),  # v >= operand
}


class _Grader:
    """A group of constrained partitions sharing the coarser partition `below`, compiled to grade them in one pass.

    Bit i of a mask stands for member i. Their constraints form families,
    one per (place, item, kind, test, j): the place of the constrained
    vertex in `below`'s plan, which an embedding's row follows, and j
    counting that key's repeats in one partition. A family reads an item's
    value only where it is of the family's kind, as :func:`_holding`
    checks it in the search. `free` is the members
    with no check in a family. An ordered test's family keeps its operands
    sorted, with the prefix or suffix ORs of their bits, so one bisection
    of a value gives the members it holds; ``=``, ``!=`` and ``~`` try each
    operand. A member with a check of no kind holds nowhere, so `every`
    leaves it out. Grading raises nothing. A group's values pack into
    `width` bits: member i's held bit at i + 2, above the 2-bit value of
    the rest, which share one coarser and so one lower value.
    """

    __slots__ = ("members", "below", "width", "every", "families")

    def __init__(self, members: tuple[ProvenancePartition, ...]) -> None:
        self.members, self.below, self.width = members, members[0].coarser[0], len(members) + 2
        every, place = (1 << len(members)) - 1, {pv.ref: at for at, (pv, _, _) in enumerate(self.below.plan)}
        checks: dict[tuple[Any, ...], list[tuple[AttrValue, int]]] = {}
        for i, p in enumerate(members):
            seen: dict[tuple[Any, ...], int] = {}
            for v in p.vertices:
                for c in v.constraints:
                    if c.kind is None:
                        every &= ~(1 << i)
                        continue
                    key = place[v.ref], c.item, c.kind, c.test
                    j = seen[key] = seen.get(key, -1) + 1
                    checks.setdefault((*key, j), []).append((c.operand, 1 << i))
        families = []
        for (at, item, kind, test, _), entries in checks.items():
            free = every & ~sum([bit for _, bit in entries])
            ordered = _ORDERED.get(test)
            if ordered is None:
                families.append((at, item, kind, free, test, tuple(entries), None))
                continue
            find, suffix = ordered
            entries.sort(key=itemgetter(0))
            masks = [0]
            for _, bit in reversed(entries) if suffix else entries:
                masks.append(masks[-1] | bit)
            families.append((at, item, kind, free, find, [op for op, _ in entries], tuple(masks[::-1] if suffix else masks)))
        self.every, self.families = every, tuple(families)

    def held(self, rows: list[list[Mapping[str, AttrValue]]]) -> int:
        """The mask of the members that some embedding in `rows`, as :func:`_all_embeddings` gives them, holds."""
        every, families, found = self.every, self.families, 0
        for row in rows:
            ok = every
            for at, item, kind, free, find, operands, masks in families:
                value = row[at].get(item)
                if _kind(value) == kind:
                    if masks is None:  # find is the test, tried on each (operand, bit)
                        for operand, bit in operands:
                            if find(value, operand):
                                free |= bit
                    else:
                        free |= masks[find(operands, value)]
                ok &= free
                if not ok:
                    break
            found |= ok
            if found == every:
                break
        return found

    def pack(self, memo: LeafMemo) -> int:
        """The values of members matched alone into `memo`, packed as a grading packs them."""
        values = [memo[id(p)] for p in self.members]
        return sum([1 << i for i, v in enumerate(values, 2) if v is _FULL]) | min(_NAMES, *values)

    def settle(self, packed: int, memo: LeafMemo) -> None:
        """Store each member's value, unpacked from `packed`, in `memo`."""
        rest = _VALUES[packed & 3]
        for i, p in enumerate(self.members, 2):
            memo[id(p)] = _FULL if packed >> i & 1 else rest


def match_partition(
    partition: ProvenancePartition, graph: ProvenanceGraph, memo: LeafMemo | None = None
) -> MatchValue:
    """Best level at which the partition embeds into the graph.

    The partition is only searched, once, for FULL: no grading is read.
    Without an embedding, its value is its :attr:`~ProvenancePartition.coarser`
    partition C's, FULL standing for C's level, read from `memo` or matched
    and stored there; a call without a memo gets a fresh one. The memo keys
    C, never the partition given.
    """
    if _find_embedding(partition, graph):
        return _FULL
    return _below(partition, graph, {} if memo is None else memo)


def _below(partition: ProvenancePartition, graph: ProvenanceGraph, memo: LeafMemo) -> MatchValue:
    """A partition's value where it has no embedding: its coarser's, through `memo`, FULL standing for its level."""
    coarser = partition.coarser
    if coarser is None:
        return _NONE
    below, level = coarser
    value = _value(below, graph, memo)
    return level if value is _FULL else value


def match_group(group: _Grader, graph: ProvenanceGraph, memo: LeafMemo) -> int:
    """The values of `group`'s partitions, packed (see :class:`_Grader`).

    The group's partitions share one coarser partition C at level NAMES (see
    :func:`partition_groups`). C's embeddings are enumerated into `memo`
    once, with C's value: FULL when there are some, else its value below
    FULL, which an empty enumeration shows without a second search of C.
    The whole group is graded against them in one pass: a partition some
    embedding holds is FULL, and the rest take the value :func:`_below`
    reads, C's with FULL standing for NAMES. C has the same vertices, names,
    edges and injectivity, so that is what a search gives. The partitions'
    own memo entries are left to :meth:`_Grader.settle`. Where the
    enumeration takes more than :data:`MAX_SEARCH_STEPS` steps, each
    partition the memo lacks is matched alone into it, in member order, and
    packed from it: the same values, and where a search gives up the same
    :class:`SearchLimitError`, as without the group.
    """
    below = group.below
    rows = memo.get(-id(below))
    if rows is None:
        rows = _all_embeddings(below, graph)
        if rows is not None:
            memo[id(below)] = _FULL if rows else _below(below, graph, memo)
        rows = memo[-id(below)] = _TOO_MANY if rows is None else rows
    if rows is _TOO_MANY:
        for p in group.members:
            _value(p, graph, memo)
        return group.pack(memo)
    return group.held(rows) << 2 | _below(group.members[0], graph, memo)


def partition_groups(leaves: Iterable[Any]) -> tuple[Any, ...]:
    """The leaf pass over distinct `leaves`: each leaf in no group, and each group, compiled for :func:`match_group`.

    A group is the constrained partitions among `leaves` that share one
    coarser partition, at level NAMES, in leaf order, where there are two
    or more; it takes its first member's place in the pass. A coarser
    partition that drops names would lose the name index, and could have
    an embedding for every vertex of a type.
    """
    leaves, by_coarser = tuple(leaves), {}
    for leaf in leaves:
        if isinstance(leaf, ProvenancePartition) and any(v.constraints for v in leaf.vertices):
            by_coarser.setdefault(id(leaf.coarser[0]), []).append(leaf)
    graders = [_Grader(tuple(members)) for members in by_coarser.values() if len(members) > 1]
    group_of, steps = {id(p): group for group in graders for p in group.members}, {}
    for leaf in leaves:
        step = group_of.get(id(leaf), leaf)
        steps.setdefault(id(step), step)  # a group once, at its first member's place
    return tuple(steps.values())


def _value(partition: ProvenancePartition, graph: ProvenanceGraph, memo: LeafMemo) -> MatchValue:
    """The partition's value in `memo`, matched and stored there if it is not yet."""
    value = memo.get(id(partition))
    if value is None:
        value = memo[id(partition)] = match_partition(partition, graph, memo)
    return value


# -- path patterns ------------------------------------------------------------

WILDCARD_TOKEN = "\\v*"


@dataclass(frozen=True)
class PathStep:
    """One concrete step: LABEL|NAME, each a text that a path pattern can spell.

    Each is read as :func:`_docs.text` reads a scalar, and must be non-empty,
    free of ``|`` and ``,``, and without surrounding space; anything else
    raises :class:`InputFormatError`.
    """

    edge_or_process: str
    vertex_name: str

    def __post_init__(self) -> None:
        for key, what in (("edge_or_process", "path step label"), ("vertex_name", "path step name")):
            value = _docs.text(getattr(self, key), what)
            if not value or value != value.strip() or "|" in value or "," in value:
                raise InputFormatError(f"{what} {value!r} is not a text a path pattern can spell")
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class PathPattern:
    """A step sequence, an array stored as a tuple; None entries are wildcards. Ends must be concrete."""

    steps: tuple[PathStep | None, ...]

    def __post_init__(self) -> None:
        steps = _docs.items(self.steps, (PathStep, type(None)), "path pattern steps", "path steps or None")
        object.__setattr__(self, "steps", steps)
        if not self.steps:
            raise PatternSyntaxError("path pattern needs at least one step")
        if self.steps[0] is None or self.steps[-1] is None:
            raise PatternSyntaxError("path pattern must not start or end with a wildcard")

    def text(self) -> str:
        parts = [
            WILDCARD_TOKEN if s is None else f"{s.edge_or_process}|{s.vertex_name}"
            for s in self.steps
        ]
        return ", ".join(parts)


def parse_path_pattern(text: str) -> PathPattern:
    """Parse ``LABEL|NAME`` steps separated by commas; ``\\v*`` is a wildcard.

    `text` is read as :func:`_docs.text` reads a scalar.
    """
    text = _docs.text(text, "path pattern")
    if not text.strip():
        raise PatternSyntaxError("empty path pattern")
    steps: list[PathStep | None] = []
    pos = 0
    for chunk in text.split(","):
        token = chunk.strip()
        if not token:
            raise PatternSyntaxError("empty path step", pos)
        if token == WILDCARD_TOKEN:
            steps.append(None)
        else:
            label, bar, name = token.partition("|")
            try:  # the step checks its label and name
                steps.append(PathStep(label.strip(), name.strip() if bar else ""))
            except InputFormatError:
                raise PatternSyntaxError(f"step {token!r} is not LABEL|NAME", pos) from None
        pos += len(chunk) + 1
    return PathPattern(tuple(steps))


def match_path(pattern: PathPattern, graph: ProvenanceGraph) -> MatchValue:
    """FULL when some directed walk realizes every step in order, else NONE.

    The walk is searched depth-first on an explicit stack, so a lineage of
    any depth decides. A state is a vertex and a step: a concrete step that
    holds there, or a wildcard that absorbs the vertex and goes on to its
    successors. A step reads nothing else of the walk, so a state seen once,
    from any start, cannot lead anywhere new a second time.

    A step holds at a vertex named NAME, or else at one entered by an edge
    whose label or refined label is LABEL; labels compare as text, the last
    items of a stored edge tuple, read in place: ``e[-1]`` is the refined
    label, or the label again on an edge without one. So a step is checked
    as the walk arrives, along its edge: a wildcard there may also absorb
    nothing, and the next step is checked at the same vertex and edge. The
    walk's first vertex, entered by no edge, may use any of its outgoing
    edges instead.
    """
    steps = pattern.steps
    last = len(steps) - 1
    vertices, out = graph._vertices, graph._out
    name, label = steps[0].vertex_name, steps[0].edge_or_process
    seen: set[tuple[str, int]] = set()
    for start, vertex in vertices.items():
        if vertex.name != name:
            for e in out.get(start, ()):
                if e[2] == label or e[-1] == label:
                    break
            else:
                continue
        if not last:
            return MatchValue.FULL
        stack = [(start, 0)]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            vid, i = state
            if steps[i] is not None:
                i += 1
            for e in out.get(vid, ()):
                dst, j = e[1], i
                while (step := steps[j]) is None:
                    stack.append((dst, j))
                    j += 1
                text = step.edge_or_process
                if vertices[dst].name == step.vertex_name or e[2] == text or e[-1] == text:
                    if j == last:
                        return MatchValue.FULL
                    stack.append((dst, j))
    return MatchValue.NONE


# -- targets ------------------------------------------------------------------

_SEGMENT_TYPE_RE = re.compile(r"(agent|artifact|process)", re.IGNORECASE | re.ASCII)  # ASCII: no "ſ" for "s"
_NAME_RE = re.compile(r'name\s*=\s*"([^"]*)"\Z')
_PREDICATES = sorted((p.value for p in Predicate), key=len, reverse=True)
_CONSTRAINT_RE = re.compile(r"(\w+)\s*(" + "|".join(map(re.escape, _PREDICATES)) + r")\s*(.+)\Z")
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}([T ].+)?\Z")


def _parse_target_value(raw: str, pos: int) -> AttrValue:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        return raw[1:-1]
    if re.fullmatch(r"-?\d+", raw):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            raise PatternSyntaxError(f"integer of {len(raw.lstrip('-'))} digits is too long", pos) from None
    if _DATE_RE.match(raw):
        try:
            return datetime.fromisoformat(raw)
        except ValueError:
            raise PatternSyntaxError(f"bad timestamp {raw!r}", pos) from None
    raise PatternSyntaxError(f"bad value {raw!r}", pos)


def parse_target(text: str) -> ProvenancePartition:
    """Desugar a target string into a path-shaped partition.

    Consecutive segments are linked by wildcard edges, so ``/a/b`` requires
    some edge from the ``a`` vertex to the ``b`` vertex, whatever its label.
    """
    s = text.strip()
    if not s:
        raise PatternSyntaxError("empty target")
    if not s.startswith("/"):
        raise PatternSyntaxError("target must start with '/'", 0)
    vertices: list[PatternVertex] = []
    edges: list[PatternEdge] = []
    pos = 0
    while pos < len(s):
        if s[pos] != "/":
            raise PatternSyntaxError(f"expected '/' before {s[pos:]!r}", pos)
        pos += 1
        m = _SEGMENT_TYPE_RE.match(s, pos)
        if not m:
            raise PatternSyntaxError("expected agent, artifact, or process", pos)
        vtype = vertex_type_from_json(m.group(1))
        pos = m.end()
        name: str | None = None
        constraints: list[AttrConstraint] = []
        while pos < len(s) and s[pos] == "[":
            end = s.find("]", pos)
            if end < 0:
                raise PatternSyntaxError("unclosed '['", pos)
            inner = s[pos + 1 : end].strip()
            nm = _NAME_RE.match(inner)
            if nm:
                if name is not None:
                    raise PatternSyntaxError("segment names its vertex twice", pos)
                name = nm.group(1)
            else:
                cm = _CONSTRAINT_RE.match(inner)
                if not cm:
                    raise PatternSyntaxError(f"bad constraint {inner!r}", pos)
                item, op, raw = cm.groups()
                constraints.append(
                    AttrConstraint(item, Predicate(op), _parse_target_value(raw, pos))
                )
            pos = end + 1
        ref = f"t{len(vertices)}"
        vertices.append(PatternVertex(ref, vtype, name, tuple(constraints)))
        if len(vertices) > 1:
            edges.append(PatternEdge(vertices[-2].ref, ref, None))
    return ProvenancePartition(tuple(vertices), tuple(edges))


# -- atomic conditions --------------------------------------------------------

@dataclass(frozen=True)
class NullCondition:
    """The empty condition; always a full match."""


@dataclass(frozen=True)
class VertexCondition:
    """Requires a vertex of the given type and name to exist; the fields are read as a pattern vertex's."""

    vtype: VertexType
    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "vtype", vertex_type_from_json(self.vtype))
        object.__setattr__(self, "name", _docs.text(self.name, "vertex condition name"))

    @cached_property
    def partition(self) -> ProvenancePartition:
        return _single(self.vtype, self.name)


@dataclass(frozen=True)
class AttrCondition:
    """Requires a (type, name) vertex whose attribute satisfies a predicate; the fields are read as a pattern's."""

    vtype: VertexType
    name: str
    item: str
    pred: Predicate
    operand: AttrValue

    def __post_init__(self) -> None:
        _attr_value(self.operand)  # as its constraint reads it, first, as the loader decodes it first
        object.__setattr__(self, "pred", _docs.member(Predicate, self.pred, "predicate"))
        object.__setattr__(self, "item", _docs.text(self.item, "attribute constraint item"))
        object.__setattr__(self, "name", _docs.text(self.name, "attr condition name"))
        object.__setattr__(self, "vtype", vertex_type_from_json(self.vtype))

    @cached_property
    def partition(self) -> ProvenancePartition:
        return _single(self.vtype, self.name, (AttrConstraint(self.item, self.pred, self.operand),))


@dataclass(frozen=True)
class QueryCondition:
    """Compares a vertex attribute against the same-named request attribute; the fields are read as a pattern's."""

    vtype: VertexType
    name: str
    query_attr: str
    pred: Predicate

    def __post_init__(self) -> None:
        object.__setattr__(self, "pred", _docs.member(Predicate, self.pred, "predicate"))
        object.__setattr__(self, "name", _docs.text(self.name, "query condition name"))
        object.__setattr__(self, "vtype", vertex_type_from_json(self.vtype))
        object.__setattr__(self, "query_attr", _docs.text(self.query_attr, "query attribute"))

    @cached_property
    def partition(self) -> ProvenancePartition:
        """The vertex without the request's constraint: every request's coarser partition, held for the memo."""
        return _single(self.vtype, self.name)


@dataclass(frozen=True)
class TargetCondition:
    """A target string, parsed once at construction into the one object of its partition.

    `text` is read as :func:`_docs.text` reads a scalar.
    """

    text: str
    partition: ProvenancePartition = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text", _docs.text(self.text, "target"))
        object.__setattr__(self, "partition", _intern(parse_target(self.text)))


AtomicCondition = Union[NullCondition, VertexCondition, AttrCondition, QueryCondition, TargetCondition]


def _single(vtype: VertexType, name: str, constraints: tuple[AttrConstraint, ...] = ()) -> ProvenancePartition:
    return _intern(ProvenancePartition((PatternVertex("c0", vtype, name, constraints),)))


def eval_atomic(
    cond: AtomicCondition,
    graph: ProvenanceGraph,
    query_attrs: Mapping[str, AttrValue] | None = None,
    memo: LeafMemo | None = None,
) -> MatchValue:
    """Evaluate one atomic condition against a graph (and request attributes).

    A vertex, attribute or target condition's value is its partition's,
    read from `memo` under the partition's identity, or matched and stored
    there; a call without a memo gets a fresh one. A query condition adds
    the request's constraint to its :attr:`~QueryCondition.partition` in a
    plain partition per call, neither interned nor a memo key, searched by
    :func:`match_partition`. A query condition whose named attribute is
    absent from the request evaluates to NONE.
    """
    if isinstance(cond, NullCondition):
        return MatchValue.FULL
    if memo is None:
        memo = {}
    if isinstance(cond, (VertexCondition, AttrCondition, TargetCondition)):
        return _value(cond.partition, graph, memo)
    if isinstance(cond, QueryCondition):
        if not query_attrs or cond.query_attr not in query_attrs:
            return MatchValue.NONE
        cond.partition  # the coarser partition the memo keys, held by the condition from here on
        c = AttrConstraint(cond.query_attr, cond.pred, query_attrs[cond.query_attr])
        return match_partition(ProvenancePartition((PatternVertex("c0", cond.vtype, cond.name, (c,)),)), graph, memo)
    raise TypeError(f"not an atomic condition: {cond!r}")
