"""Typed provenance graphs.

A provenance graph is a directed acyclic graph whose vertices are agents,
artifacts, processes, or attribute bundles, and whose edges carry one of six
relationship labels. Only eight (source type, destination type, label)
combinations are legal; :data:`ALLOWED_EDGES` is that closed set and
:meth:`ProvenanceGraph.validate` enforces it together with acyclicity.

Attributes are not stored inline on agent/artifact/process vertices. Instead,
:meth:`ProvenanceGraph.add_vertex` and :func:`graph_from_dict` materialize a
separate Attribute vertex holding the payload and link it with a
``hasAttributes`` edge, so attribute data is itself part of the graph.
:meth:`ProvenanceGraph.attributes_of` re-assembles the payload view for a main
vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from datetime import datetime
from enum import Enum
from types import MappingProxyType
from typing import Any, Iterator, Mapping, Sequence

from . import _docs
from .errors import InputFormatError, UnknownVertexError

# Attribute values are a small scalar union. Timestamps are datetimes;
# locations are plain strings (they only ever compare for equality/containment).
AttrValue = str | int | datetime
AttributeSet = dict[str, AttrValue]


class VertexType(str, Enum):
    AGENT = "Agent"
    ARTIFACT = "Artifact"
    PROCESS = "Process"
    ATTRIBUTE = "Attribute"


class EdgeLabel(str, Enum):
    USED = "used"
    WAS_GENERATED_BY = "wasGeneratedBy"
    WAS_CONTROLLED_BY = "wasControlledBy"
    WAS_TRIGGERED_BY = "wasTriggeredBy"
    WAS_DERIVED_FROM = "wasDerivedFrom"
    HAS_ATTRIBUTES = "hasAttributes"


#: The text of each edge label, keyed by its text and, since a member hashes
#: and compares as its text, by its member; stored edges hold these texts.
#: _LABELS maps the text back to the member.
_LABEL_TEXT: dict[str, str] = {label.value: label.value for label in EdgeLabel}
_LABELS = {label.value: label for label in EdgeLabel}

# Looking up an enum member costs a call on Python 3.11; graphs read these per vertex.
_ATTRIBUTE, _HAS_ATTRIBUTES = VertexType.ATTRIBUTE, EdgeLabel.HAS_ATTRIBUTES.value

# The payload every agent/artifact/process vertex shares: empty and read-only,
# since a main vertex's attributes live on its Attribute vertex.
_NO_ATTRS: Mapping[str, AttrValue] = MappingProxyType({})

#: The closed set of legal (source type, destination type, label) triples.
ALLOWED_EDGES: frozenset[tuple[VertexType, VertexType, EdgeLabel]] = frozenset(
    {
        (VertexType.PROCESS, VertexType.ARTIFACT, EdgeLabel.USED),
        (VertexType.ARTIFACT, VertexType.PROCESS, EdgeLabel.WAS_GENERATED_BY),
        (VertexType.PROCESS, VertexType.AGENT, EdgeLabel.WAS_CONTROLLED_BY),
        (VertexType.ARTIFACT, VertexType.ARTIFACT, EdgeLabel.WAS_DERIVED_FROM),
        (VertexType.PROCESS, VertexType.PROCESS, EdgeLabel.WAS_TRIGGERED_BY),
        (VertexType.AGENT, VertexType.ATTRIBUTE, EdgeLabel.HAS_ATTRIBUTES),
        (VertexType.PROCESS, VertexType.ATTRIBUTE, EdgeLabel.HAS_ATTRIBUTES),
        (VertexType.ARTIFACT, VertexType.ATTRIBUTE, EdgeLabel.HAS_ATTRIBUTES),
    }
)


@dataclass(frozen=True, slots=True)
class ProvVertex:
    """One graph vertex. Ids are the identity; names may repeat.

    In a graph, main vertices share one read-only empty `attrs` mapping.
    Frozen, since the graph's :meth:`~ProvenanceGraph.ids_of` index reads
    types and names once.
    """

    id: str
    vtype: VertexType
    name: str
    attrs: Mapping[str, AttrValue] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ProvEdge:
    """A labeled edge. `refined` is an optional free-form label refinement

    used by path matching for relationship names outside the closed label set
    (e.g. a domain-specific "wasSubmittedBy" riding on a ``used`` edge).
    A graph does not keep these: its accessors build them from the tuples it
    stores, so two calls return equal, separate edges.
    """

    src: str
    dst: str
    label: EdgeLabel
    refined: str | None = None


def _edge(src: str, dst: str, label: str, refined: str | None = None) -> ProvEdge:
    """The edge a stored tuple stands for."""
    return ProvEdge(src, dst, _LABELS[label], refined)


# A frozen dataclass's __init__ sets each field through object.__setattr__.
# _add_vertex, run once per vertex, fills the same slots through their
# descriptors in about half the time; the object is as equal and frozen as
# any other.
_set_id, _set_vtype, _set_name, _set_attrs = (getattr(ProvVertex, f.name).__set__ for f in fields(ProvVertex))


def _vertex(vid: str, vtype: VertexType, name: str, attrs: Mapping[str, AttrValue]) -> ProvVertex:
    vertex = object.__new__(ProvVertex)
    _set_id(vertex, vid)
    _set_vtype(vertex, vtype)
    _set_name(vertex, name)
    _set_attrs(vertex, attrs)
    return vertex


@dataclass
class ValidityReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


# A stored edge: (src, dst, label text), or (src, dst, label text, refined)
# when it has a refined label.
_EdgeTuple = tuple[str, ...]


class ProvenanceGraph:
    """Mutable container for vertices and edges, validated on demand.

    Each edge is stored as one exact tuple of strings, ``(src, dst,
    label)`` or ``(src, dst, label, refined)``, where `label` is the plain
    text of its :class:`EdgeLabel`. The tuple sits in the list of all edges,
    in its source's out-list and in its destination's in-list. The cyclic
    garbage collector stops tracking such a tuple at its first collection,
    whereas it would track a :class:`ProvEdge` for as long as it lived.
    :attr:`edges`, :meth:`out_edges` and :meth:`in_edges` build fresh lists
    of :class:`ProvEdge` from the tuples, and :attr:`vertices` is a
    read-only view; matching reads the tuples and the vertex dict in place.
    """

    def __init__(self) -> None:
        self._vertices: dict[str, ProvVertex] = {}
        self._edges: list[_EdgeTuple] = []
        self._out: dict[str, list[_EdgeTuple]] = {}
        self._in: dict[str, list[_EdgeTuple]] = {}
        self._auto = 0
        # vertex ids by type and by (type, name); built by ids_of on first use
        self._index: dict[Any, list[str]] | None = None

    # -- construction ------------------------------------------------------

    def add_vertex(
        self,
        vtype: VertexType,
        name: str,
        attrs: Mapping[str, AttrValue] | None = None,
        *,
        vid: str | None = None,
    ) -> str:
        """Add a vertex and return its id.

        For agent/artifact/process vertices a non-empty `attrs` mapping is
        stored on a fresh Attribute vertex reached via a ``hasAttributes``
        edge; the main vertex itself gets the shared read-only empty
        payload. The graph keeps a copy of `attrs`, never the caller's
        mapping. Its fields are read as the decoder reads them: `vtype` as
        :func:`vertex_type_from_json` reads a type, a member or its text in
        any case, `name` and `vid` as :func:`_docs.text` reads a scalar, and
        each value of `attrs` as :func:`_attr_value` reads a decoded value.
        Anything else raises :class:`InputFormatError`. Drops the
        :meth:`ids_of` index.
        """
        vtype, text = vertex_type_from_json(vtype), _docs.text
        name, vid = text(name, 'vertex "name"'), vid if vid is None else text(vid, 'vertex "id"')
        payload = {k: _attr_value(v) for k, v in dict(attrs).items()} if attrs else None
        return self._add_vertex(vtype, name, payload, vid)

    def _add_vertex(self, vtype: VertexType, name: str, payload: dict[str, AttrValue] | None, vid: str | None) -> str:
        """:meth:`add_vertex` that keeps `payload`, a dict no caller holds, as the attributes."""
        if not name:
            raise InputFormatError("vertex name must be non-empty")
        if vid is None:
            vid = self._fresh_id()
        vertices = self._vertices
        if vid in vertices:
            raise InputFormatError(f"duplicate vertex id {vid!r}")
        self._index = None
        if vtype is _ATTRIBUTE:
            vertices[vid] = _vertex(vid, vtype, name, {} if payload is None else payload)
            return vid
        vertices[vid] = _vertex(vid, vtype, name, _NO_ATTRS)
        if payload:
            att_id = f"{vid}:att"
            if att_id in vertices:
                raise InputFormatError(f"duplicate vertex id {att_id!r}")
            vertices[att_id] = _vertex(att_id, _ATTRIBUTE, f"{name} attributes", payload)
            self._add_edge(vid, att_id, _HAS_ATTRIBUTES, None)
        return vid

    def add_edge(self, src: str, dst: str, label: EdgeLabel | str, refined: str | None = None) -> None:
        """Add an edge between two existing vertices; the :meth:`ids_of` index stays.

        `src`, `dst` and `refined` are read as the decoder reads them: a
        string as it is, a number as its text. `label` is an
        :class:`EdgeLabel` or its value text, checked after the endpoints.
        Anything else raises :class:`InputFormatError`.
        """
        text = _docs.text
        src, dst = text(src, 'edge "src"'), text(dst, 'edge "dst"')
        self._add_edge(src, dst, label, refined if refined is None else text(refined, '"refinedLabel"'))

    def _add_edge(self, src: str, dst: str, label: EdgeLabel | str, refined: str | None) -> None:
        """:meth:`add_edge` for ends and a refined label already read as text."""
        vertices = self._vertices
        if src not in vertices:
            raise UnknownVertexError(f"edge endpoint {src!r} is not a vertex")
        if dst not in vertices:
            raise UnknownVertexError(f"edge endpoint {dst!r} is not a vertex")
        try:
            text = _LABEL_TEXT[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise InputFormatError(f"unknown edge label {label!r}") from None
        edge = (src, dst, text) if refined is None else (src, dst, text, refined)
        self._edges.append(edge)
        if (edges := self._out.get(src)) is None:
            self._out[src] = [edge]
        else:
            edges.append(edge)
        if (edges := self._in.get(dst)) is None:
            self._in[dst] = [edge]
        else:
            edges.append(edge)

    def _fresh_id(self) -> str:
        while True:
            vid = f"v{self._auto}"
            self._auto += 1
            if vid not in self._vertices:
                return vid

    # -- access ------------------------------------------------------------

    @property
    def vertices(self) -> Mapping[str, ProvVertex]:
        """A read-only view of the vertices by id, in the order they were added."""
        return MappingProxyType(self._vertices)

    @property
    def edges(self) -> list[ProvEdge]:
        """A fresh list of every edge, in the order they were added."""
        return [_edge(*edge) for edge in self._edges]

    def vertex(self, vid: str) -> ProvVertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise UnknownVertexError(f"no vertex with id {vid!r}") from None

    def tau(self, vid: str) -> VertexType:
        """The type of a vertex."""
        return self.vertex(vid).vtype

    def out_edges(self, vid: str) -> list[ProvEdge]:
        """A fresh list of the edges leaving a vertex, in the order they were added."""
        return [_edge(*edge) for edge in self._out.get(vid, ())]

    def in_edges(self, vid: str) -> list[ProvEdge]:
        """A fresh list of the edges entering a vertex, in the order they were added."""
        return [_edge(*edge) for edge in self._in.get(vid, ())]

    def ids_of(self, vtype: VertexType, name: str | None = None) -> Sequence[str]:
        """Ids of the vertices of a type, and of a name if one is given.

        Ids come in insertion order. The index behind them is built on first
        use and dropped by :meth:`add_vertex`; it holds vertices only, so an
        added edge leaves it current. Callers must not modify the returned
        sequence.
        """
        index = self._index
        if index is None:
            index = self._index = {}
            for v in self._vertices.values():
                index.setdefault(v.vtype, []).append(v.id)
                index.setdefault((v.vtype, v.name), []).append(v.id)
        return index.get(vtype if name is None else (vtype, name), ())

    def attributes_of(self, vid: str) -> AttributeSet:
        """The attribute payload visible from a vertex.

        Attribute vertices return their own payload; other vertices return the
        merged payloads of all Attribute vertices one ``hasAttributes`` hop away.
        The dict is a fresh copy of :meth:`_payload`'s.
        """
        self.vertex(vid)
        return dict(self._payload(vid))

    def _payload(self, vid: str) -> Mapping[str, AttrValue]:
        """The attributes a known vertex shows, read in place: the reader the search, grading and :meth:`attributes_of` share.

        An Attribute vertex shows its own payload, any other vertex those of
        its ``hasAttributes`` edges merged, the last to hold an item winning.
        The mapping may be a stored payload: a caller must not change it,
        and reads it again after a write to the graph.
        """
        vertices = self._vertices
        vertex = vertices[vid]
        if vertex.vtype is _ATTRIBUTE:
            return vertex.attrs
        shown = _NO_ATTRS
        for edge in self._out.get(vid, ()):
            if edge[2] == _HAS_ATTRIBUTES:
                attrs = vertices[edge[1]].attrs
                shown = attrs if shown is _NO_ATTRS else {**shown, **attrs}
        return shown

    def main_vertices(self) -> Iterator[ProvVertex]:
        """Vertices that are not attribute bundles."""
        for vertex in self._vertices.values():
            if vertex.vtype is not _ATTRIBUTE:
                yield vertex

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidityReport:
        """Check the closed edge-triple set, acyclicity, and attribute linkage.

        Violations are data, not exceptions: callers get the full list. Edge
        triples read vertex types straight from the vertex dict, acyclicity
        is :func:`topological_order_of`'s in-degree walk, and the
        ``hasAttributes`` in-edges are counted, not collected. Payloads are
        not read: main vertices share one read-only empty payload.
        """
        violations: list[str] = []
        vertices = self._vertices
        for edge in self._edges:
            # a label text hashes and compares as its member, so the triple is looked up as it is
            triple = (vertices[edge[0]].vtype, vertices[edge[1]].vtype, edge[2])
            if triple not in ALLOWED_EDGES:
                violations.append(
                    f"edge {edge[0]!r} -> {edge[1]!r}: "
                    f"({triple[0].value}, {triple[1].value}, {edge[2]}) "
                    "is not an allowed relationship"
                )
        if topological_order_of(self) is None:
            violations.append("graph contains a cycle")
        for vertex in vertices.values():
            if vertex.vtype is _ATTRIBUTE:
                incoming = sum(e[2] == _HAS_ATTRIBUTES for e in self._in.get(vertex.id, ()))
                if incoming != 1:
                    violations.append(
                        f"attribute vertex {vertex.id!r} has {incoming} incoming "
                        "hasAttributes edges (expected exactly 1)"
                    )
        return ValidityReport(ok=not violations, violations=violations)


def topological_order_of(graph: ProvenanceGraph) -> list[str] | None:
    """Topological vertex order, or None if the graph has a cycle.

    Kahn's algorithm with a FIFO queue: the sources in vertex order, then
    each vertex once its last in-edge is walked, following out-edges in the
    order they were added. In-degrees are the lengths of the in-edge lists.
    """
    out = graph._out
    indegree = {vid: len(edges) for vid, edges in graph._in.items()}
    order = [vid for vid in graph._vertices if vid not in indegree]
    for vid in order:  # the queue: vertices are appended behind the one being walked
        for edge in out.get(vid, ()):
            dst = edge[1]
            left = indegree[dst] - 1
            indegree[dst] = left
            if not left:
                order.append(dst)
    return order if len(order) == len(graph._vertices) else None


# -- serialization ----------------------------------------------------------

def attr_value_to_json(value: AttrValue) -> Any:
    if isinstance(value, datetime):
        return {"timestamp": value.isoformat()}
    return value


def attr_value_from_json(value: Any) -> AttrValue:
    if isinstance(value, bool):
        raise InputFormatError("boolean attribute values are not supported")
    if isinstance(value, (str, int)):
        return value
    if isinstance(value, dict):
        if set(value) == {"timestamp"}:
            try:
                return datetime.fromisoformat(value["timestamp"])
            except (TypeError, ValueError) as exc:
                raise InputFormatError(f"bad timestamp {value['timestamp']!r}") from exc
        if set(value) == {"location"}:
            place = value["location"]
            if not isinstance(place, str):
                raise InputFormatError("location value must be a string")
            return place
    raise InputFormatError(f"unsupported attribute value {value!r}")


def _attr_value(value: Any) -> AttrValue:
    """A decoded attribute value: a str, an int that is not a bool, or a datetime.

    Anything else is refused in :func:`attr_value_from_json`'s words; an
    object, which JSON spells a timestamp or a location with, is no decoded value.
    """
    if isinstance(value, (str, int, datetime)) and not isinstance(value, bool):
        return value
    if isinstance(value, dict):
        raise InputFormatError(f"unsupported attribute value {value!r}")
    return attr_value_from_json(value)  # refuses it


def attrs_from_json(raw: Any) -> AttributeSet:
    if raw is None:
        return {}
    return {str(k): attr_value_from_json(v) for k, v in _docs.obj(raw, "attrs").items()}


# Keyed by lower case and, for graph_from_dict's exact lookup, the two other usual spellings.
_VERTEX_TYPES = {s: t for t in VertexType for s in (t.value.lower(), t.value, t.value.upper())}


def vertex_type_from_json(value: Any) -> VertexType:
    """A :class:`VertexType`, or its value text in any case.

    Vertex type names are case-insensitive, in graphs and patterns alike.
    """
    found = (_VERTEX_TYPES.get(value) or _VERTEX_TYPES.get(value.lower())) if isinstance(value, str) else None
    if found is None:
        raise InputFormatError(f"unknown vertex type {value!r}")
    return found


def graph_from_dict(doc: Mapping[str, Any]) -> ProvenanceGraph:
    """Build a graph from the document form: {"vertices": [...], "edges": [...]}.

    Vertex entries are {id, type, name, attrs?}; edge entries are {src, dst,
    label, refinedLabel?}, where a null refinedLabel is absent and ids, names,
    ends and refined labels are :func:`_docs.text` scalars. Inline attrs on a
    main vertex become an Attribute vertex, as in :meth:`add_vertex`. One pass
    adds every vertex and then every edge through the bodies of
    :meth:`add_vertex` and :meth:`add_edge`, in document order, with each
    field read here once, so it fails as those calls would; each inline attrs
    dict, built here, is kept without a copy.
    """
    doc = _docs.obj(doc, "graph document")
    graph = ProvenanceGraph()
    add_vertex, add_edge, text, member = graph._add_vertex, graph._add_edge, _docs.text, _docs.member
    for entry in _docs.array(doc.get("vertices", []), '"vertices"'):
        try:
            vid, vtype, name = entry["id"], entry["type"], entry["name"]
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"vertex entry {entry!r} needs id/type/name") from exc
        attrs = attrs_from_json(entry.get("attrs"))
        # A string is taken as it is, or looked up in a table; other values go to the checked readers.
        vtype = (_VERTEX_TYPES.get(vtype) if type(vtype) is str else None) or vertex_type_from_json(vtype)
        name = name if type(name) is str else text(name, 'vertex "name"')
        add_vertex(vtype, name, attrs, vid if type(vid) is str else text(vid, 'vertex "id"'))
    for entry in _docs.array(doc.get("edges", []), '"edges"'):
        try:
            src, dst, label = entry["src"], entry["dst"], entry["label"]
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"edge entry {entry!r} needs src/dst/label") from exc
        refined = entry.get("refinedLabel")
        refined = refined if refined is None or type(refined) is str else text(refined, '"refinedLabel"')
        label = (_LABEL_TEXT.get(label) if type(label) is str else None) or member(EdgeLabel, label, "edge label")
        src = src if type(src) is str else text(src, 'edge "src"')
        add_edge(src, dst if type(dst) is str else text(dst, 'edge "dst"'), label, refined)
    return graph


def graph_to_dict(graph: ProvenanceGraph) -> dict[str, Any]:
    """Document form of a graph. Attribute vertices are emitted explicitly,

    so a dump/load round trip preserves ids and structure exactly.
    """
    vertices = [
        {
            "id": v.id,
            "type": v.vtype.value,
            "name": v.name,
            "attrs": {k: attr_value_to_json(val) for k, val in v.attrs.items()},
        }
        for v in graph.vertices.values()
    ]
    edges = []
    for src, dst, label, *refined in graph._edges:
        entry: dict[str, Any] = {"src": src, "dst": dst, "label": label}
        if refined:
            entry["refinedLabel"] = refined[0]
        edges.append(entry)
    return {"vertices": vertices, "edges": edges}


def load_graph(path: str) -> ProvenanceGraph:
    return _docs.load(path, graph_from_dict)


def dump_graph(graph: ProvenanceGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2, sort_keys=True)
        fh.write("\n")
