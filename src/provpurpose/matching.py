"""Four-valued condition matching against provenance graphs.

Match results form a chain, best to worst:

* ``FULL``: the graph embeds the whole pattern: vertex types, vertex names,
  every attribute constraint, and every edge with its label.
* ``NAMES``: an embedding satisfies types and names (and edges), but no
  embedding also satisfies all attribute constraints.
* ``TYPES``: an embedding satisfies vertex types (and edges) only.
* ``NONE``: not even the typed shape is present.

Conjunction is ``min`` and disjunction is ``max`` on that chain; only ``FULL``
ever grants purposes downstream.

An embedding here is an injective mapping of pattern vertices to graph
vertices that preserves every pattern edge, matching edge labels exactly
(wildcard pattern edges only require some edge in the right direction).
A partition search that takes more than :data:`MAX_SEARCH_STEPS` steps
raises :class:`SearchLimitError` instead of returning a value.

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
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum, IntEnum
from functools import cached_property
from operator import contains, eq, ge, gt, le, lt, ne
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Union

from ._dagutil import reachable_from
from .errors import PatternSyntaxError, SearchLimitError, TypeMismatchError
from .provenance import AttrValue, EdgeLabel, ProvEdge, ProvenanceGraph, VertexType, vertex_type_from_json


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
    if isinstance(value, bool):
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
    item: str
    pred: Predicate
    operand: AttrValue


@dataclass(frozen=True)
class PatternVertex:
    """A vertex constraint: type always, name and attributes optionally."""

    ref: str
    vtype: VertexType
    name: str | None = None
    constraints: tuple[AttrConstraint, ...] = ()


@dataclass(frozen=True)
class PatternEdge:
    """An edge constraint between pattern refs; label None means wildcard."""

    src: str
    dst: str
    label: EdgeLabel | None = None


class _Placement(NamedTuple):
    """A vertex of a search plan, with its edges to vertices placed before it."""

    vertex: PatternVertex
    anchor: PatternEdge | None  # draws the candidates; None for the first vertex
    checks: tuple[PatternEdge, ...]


@dataclass(frozen=True)
class ProvenancePartition:
    """A connected pattern over vertices and labeled edges."""

    vertices: tuple[PatternVertex, ...]
    edges: tuple[PatternEdge, ...] = ()

    def __post_init__(self) -> None:
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
    def levels(self) -> tuple[MatchValue, ...]:
        """The levels worth searching, best first; one that checks nothing more
        than the one above it (no constraints, or no names) is left out."""
        has_constraints = any(v.constraints for v in self.vertices)
        return _LEVELS[has_constraints, any(v.name is not None for v in self.vertices)]


# ProvenancePartition.levels by (has constraints, has names), shared by every partition.
_LEVELS = {
    (False, False): (MatchValue.FULL,),
    (True, False): (MatchValue.FULL, MatchValue.NAMES),
    (False, True): (MatchValue.FULL, MatchValue.TYPES),
    (True, True): (MatchValue.FULL, MatchValue.NAMES, MatchValue.TYPES),
}


#: Candidates one partition search may draw for pattern vertices after the
#: first before it gives up with :class:`SearchLimitError`.
MAX_SEARCH_STEPS = 100_000

# Looking up an enum member costs a call on Python 3.11; the search reads these per vertex.
_FULL, _TYPES = MatchValue.FULL, MatchValue.TYPES


def _attrs_hold(pv: PatternVertex, vid: str, graph: ProvenanceGraph) -> bool:
    if not pv.constraints:
        return True
    attrs = graph.attributes_of(vid)
    for c in pv.constraints:
        if c.item not in attrs:
            return False
        try:
            if not eval_predicate(c.pred, attrs[c.item], c.operand):
                return False
        except TypeMismatchError:
            # a constraint that cannot even be compared is unsatisfied
            return False
    return True


def _has_edge(graph: ProvenanceGraph, src: str, dst: str, label: EdgeLabel | None) -> bool:
    for e in graph.out_edges(src):
        if e.dst == dst and (label is None or e.label is label):
            return True
    return False


def _candidates(
    graph: ProvenanceGraph, placed: dict[str, str], placement: _Placement, level: MatchValue
) -> Iterator[str]:
    """Graph vertices that may stand for a plan entry's vertex at a level.

    The first vertex's come from the graph's type/name index. A later
    vertex's are the ends of its placed anchor's edges, as the anchor
    demands, of its type and, where the level checks names, of its name.
    Constraints are checked last, lazily, and only at FULL.
    """
    pv, anchor, _ = placement
    name = None if level is _TYPES else pv.name
    if anchor is None:
        found = graph.ids_of(pv.vtype, name)
    else:
        forward = anchor.dst == pv.ref
        label, vertices, vtype = anchor.label, graph.vertices, pv.vtype
        found = []
        for e in graph.out_edges(placed[anchor.src]) if forward else graph.in_edges(placed[anchor.dst]):
            vid = e.dst if forward else e.src
            gv = vertices[vid]
            if (label is None or e.label is label) and gv.vtype is vtype and (name is None or gv.name == name):
                found.append(vid)
    if pv.constraints and level is _FULL:
        return (vid for vid in found if _attrs_hold(pv, vid, graph))
    return iter(found)


def _find_embedding(partition: ProvenancePartition, graph: ProvenanceGraph, level: MatchValue) -> bool:
    """Whether some injective, edge-preserving placement of the pattern exists at a level.

    One backtracking loop over a stack of candidate iterators, one per plan
    entry up to the one being placed; `placed` maps pattern refs to graph
    vertices in plan order. Each candidate drawn for a vertex after the first
    is a step; past :data:`MAX_SEARCH_STEPS` steps the search raises
    :class:`SearchLimitError`, since a guessed value would change decisions.
    """
    plan = partition.plan
    placed: dict[str, str] = {}
    pending = [_candidates(graph, placed, plan[0], level)]
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
            if not checks or all(_has_edge(graph, placed[e.src], placed[e.dst], e.label) for e in checks):
                break
            del placed[pv.ref]
        else:
            pending.pop()
            if placed:
                placed.popitem()
            continue
        if len(placed) == len(plan):
            return True
        pending.append(_candidates(graph, placed, plan[len(placed)], level))
    return False


def match_partition(partition: ProvenancePartition, graph: ProvenanceGraph) -> MatchValue:
    """Best level at which the partition embeds into the graph.

    Only the partition's :attr:`~ProvenancePartition.levels` are searched,
    best first, so a call runs at most three searches.
    """
    for level in partition.levels:
        if _find_embedding(partition, graph, level):
            return level
    return MatchValue.NONE


# -- path patterns ------------------------------------------------------------

WILDCARD_TOKEN = "\\v*"


@dataclass(frozen=True)
class PathStep:
    """One concrete step: LABEL|NAME."""

    edge_or_process: str
    vertex_name: str


@dataclass(frozen=True)
class PathPattern:
    """A step sequence; None entries are wildcards. Ends must be concrete."""

    steps: tuple[PathStep | None, ...]

    def __post_init__(self) -> None:
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
    """Parse ``LABEL|NAME`` steps separated by commas; ``\\v*`` is a wildcard."""
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
            if "|" not in token:
                raise PatternSyntaxError(f"step {token!r} is not LABEL|NAME", pos)
            label, _, name = token.partition("|")
            label, name = label.strip(), name.strip()
            if not label or not name or "|" in name:
                raise PatternSyntaxError(f"step {token!r} is not LABEL|NAME", pos)
            steps.append(PathStep(label, name))
        pos += len(chunk) + 1
    return PathPattern(tuple(steps))


def _edge_labelish(edge: ProvEdge, token: str) -> bool:
    return edge.label.value == token or edge.refined == token


def _step_at(
    step: PathStep,
    vid: str,
    label: EdgeLabel | None,
    refined: str | None,
    graph: ProvenanceGraph,
) -> bool:
    """Whether a step holds at a vertex entered by an edge with this label.

    `label` is None only at the walk's first vertex, which may use any of its
    outgoing edges instead.
    """
    token = step.edge_or_process
    if graph.vertex(vid).name == step.vertex_name:
        return True
    if label is None:
        return any(_edge_labelish(e, token) for e in graph.out_edges(vid))
    return label.value == token or refined == token


def match_path(pattern: PathPattern, graph: ProvenanceGraph) -> MatchValue:
    """FULL when some directed walk realizes every step in order, else NONE.

    The walk is searched depth-first on an explicit stack, so a lineage of
    any depth decides. A state is (vertex, step, entry label, entry refined
    label), which is all that a step reads of the edge it came in by; a state
    seen once, from any start, cannot lead anywhere new a second time.
    """
    steps = pattern.steps
    last = len(steps) - 1
    seen: set[tuple[str, int, EdgeLabel | None, str | None]] = set()
    for start in graph.vertices:
        stack: list[tuple[str, int, EdgeLabel | None, str | None]] = [(start, 0, None, None)]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            vid, i, label, refined = state
            step = steps[i]
            if step is None:
                stack.extend((e.dst, i, e.label, e.refined) for e in graph.out_edges(vid))
                stack.append((vid, i + 1, label, refined))
            elif _step_at(step, vid, label, refined, graph):
                if i == last:
                    return MatchValue.FULL
                stack.extend((e.dst, i + 1, e.label, e.refined) for e in graph.out_edges(vid))
    return MatchValue.NONE


# -- targets ------------------------------------------------------------------

_SEGMENT_TYPE_RE = re.compile(r"(agent|artifact|process)")
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
    """Requires a vertex of the given type and name to exist."""

    vtype: VertexType
    name: str

    @cached_property
    def partition(self) -> ProvenancePartition:
        return _single(self.vtype, self.name)


@dataclass(frozen=True)
class AttrCondition:
    """Requires a (type, name) vertex whose attribute satisfies a predicate."""

    vtype: VertexType
    name: str
    item: str
    pred: Predicate
    operand: AttrValue

    @cached_property
    def partition(self) -> ProvenancePartition:
        return _single(self.vtype, self.name, (AttrConstraint(self.item, self.pred, self.operand),))


@dataclass(frozen=True)
class QueryCondition:
    """Compares a vertex attribute against the same-named request attribute."""

    vtype: VertexType
    name: str
    query_attr: str
    pred: Predicate


@dataclass(frozen=True)
class TargetCondition:
    """A target string, parsed once at construction."""

    text: str
    partition: ProvenancePartition = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "partition", parse_target(self.text))


AtomicCondition = Union[NullCondition, VertexCondition, AttrCondition, QueryCondition, TargetCondition]


def _single(vtype: VertexType, name: str, constraints: tuple[AttrConstraint, ...] = ()) -> ProvenancePartition:
    return ProvenancePartition((PatternVertex("c0", vtype, name, constraints),))


def eval_atomic(
    cond: AtomicCondition,
    graph: ProvenanceGraph,
    query_attrs: Mapping[str, AttrValue] | None = None,
) -> MatchValue:
    """Evaluate one atomic condition against a graph (and request attributes).

    A query condition whose named attribute is absent from the request
    evaluates to NONE rather than raising.
    """
    if isinstance(cond, NullCondition):
        return MatchValue.FULL
    if isinstance(cond, (VertexCondition, AttrCondition, TargetCondition)):
        return match_partition(cond.partition, graph)
    if isinstance(cond, QueryCondition):
        if not query_attrs or cond.query_attr not in query_attrs:
            return MatchValue.NONE
        constraint = AttrConstraint(cond.query_attr, cond.pred, query_attrs[cond.query_attr])
        return match_partition(_single(cond.vtype, cond.name, (constraint,)), graph)
    raise TypeError(f"not an atomic condition: {cond!r}")
