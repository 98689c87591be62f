"""Typed provenance graphs.

A provenance graph is a directed acyclic graph whose vertices are agents,
artifacts, processes, or attribute bundles, and whose edges carry one of six
relationship labels. Only eight (source type, destination type, label)
combinations are legal; :data:`ALLOWED_EDGES` is that closed set and
:meth:`ProvenanceGraph.validate` enforces it together with acyclicity.

Attributes are not stored inline on agent/artifact/process vertices. Instead,
:meth:`ProvenanceGraph.add_vertex` materializes a separate Attribute vertex
holding the payload and links it with a ``hasAttributes`` edge, so attribute
data is itself part of the graph. :meth:`ProvenanceGraph.attributes_of`
re-assembles the payload view for a main vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
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


@dataclass
class ProvVertex:
    """One graph vertex. Ids are the identity; names may repeat."""

    id: str
    vtype: VertexType
    name: str
    attrs: AttributeSet = field(default_factory=dict)


@dataclass(frozen=True)
class ProvEdge:
    """A labeled edge. `refined` is an optional free-form label refinement

    used by path matching for relationship names outside the closed label set
    (e.g. a domain-specific "wasSubmittedBy" riding on a ``used`` edge).
    """

    src: str
    dst: str
    label: EdgeLabel
    refined: str | None = None


@dataclass
class ValidityReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


class ProvenanceGraph:
    """Mutable container for vertices and edges, validated on demand."""

    def __init__(self) -> None:
        self._vertices: dict[str, ProvVertex] = {}
        self._edges: list[ProvEdge] = []
        self._out: dict[str, list[ProvEdge]] = {}
        self._in: dict[str, list[ProvEdge]] = {}
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
        edge; the main vertex itself keeps an empty payload.
        """
        if not name:
            raise InputFormatError("vertex name must be non-empty")
        if vid is None:
            vid = self._fresh_id()
        if vid in self._vertices:
            raise InputFormatError(f"duplicate vertex id {vid!r}")
        if vtype is VertexType.ATTRIBUTE:
            vertex = ProvVertex(vid, vtype, name, dict(attrs or {}))
            self._insert(vertex)
            return vid
        vertex = ProvVertex(vid, vtype, name, {})
        self._insert(vertex)
        if attrs:
            att_id = f"{vid}:att"
            if att_id in self._vertices:
                raise InputFormatError(f"duplicate vertex id {att_id!r}")
            self._insert(ProvVertex(att_id, VertexType.ATTRIBUTE, f"{name} attributes", dict(attrs)))
            self.add_edge(vid, att_id, EdgeLabel.HAS_ATTRIBUTES)
        return vid

    def add_edge(self, src: str, dst: str, label: EdgeLabel, refined: str | None = None) -> None:
        for vid in (src, dst):
            if vid not in self._vertices:
                raise UnknownVertexError(f"edge endpoint {vid!r} is not a vertex")
        edge = ProvEdge(src, dst, label, refined)
        self._index = None
        self._edges.append(edge)
        self._out.setdefault(src, []).append(edge)
        self._in.setdefault(dst, []).append(edge)

    def _insert(self, vertex: ProvVertex) -> None:
        self._index = None
        self._vertices[vertex.id] = vertex

    def _fresh_id(self) -> str:
        while True:
            vid = f"v{self._auto}"
            self._auto += 1
            if vid not in self._vertices:
                return vid

    # -- access ------------------------------------------------------------

    @property
    def vertices(self) -> dict[str, ProvVertex]:
        return self._vertices

    @property
    def edges(self) -> list[ProvEdge]:
        return self._edges

    def vertex(self, vid: str) -> ProvVertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise UnknownVertexError(f"no vertex with id {vid!r}") from None

    def tau(self, vid: str) -> VertexType:
        """The type of a vertex."""
        return self.vertex(vid).vtype

    def out_edges(self, vid: str) -> list[ProvEdge]:
        return self._out.get(vid, [])

    def in_edges(self, vid: str) -> list[ProvEdge]:
        return self._in.get(vid, [])

    def ids_of(self, vtype: VertexType, name: str | None = None) -> Sequence[str]:
        """Ids of the vertices of a type, and of a name if one is given.

        Ids come in insertion order. The index behind them is built on first
        use and dropped by every mutation, so it never describes an older
        graph; callers must not modify the returned sequence.
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
        """
        vertex = self.vertex(vid)
        if vertex.vtype is VertexType.ATTRIBUTE:
            return dict(vertex.attrs)
        merged: AttributeSet = {}
        for edge in self.out_edges(vid):
            if edge.label is EdgeLabel.HAS_ATTRIBUTES:
                merged.update(self._vertices[edge.dst].attrs)
        return merged

    def main_vertices(self) -> Iterator[ProvVertex]:
        """Vertices that are not attribute bundles."""
        for vertex in self._vertices.values():
            if vertex.vtype is not VertexType.ATTRIBUTE:
                yield vertex

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidityReport:
        """Check acyclicity, the closed edge-triple set, and attribute linkage.

        Violations are data, not exceptions: callers get the full list.
        """
        violations: list[str] = []
        for edge in self._edges:
            triple = (self.tau(edge.src), self.tau(edge.dst), edge.label)
            if triple not in ALLOWED_EDGES:
                violations.append(
                    f"edge {edge.src!r} -> {edge.dst!r}: "
                    f"({triple[0].value}, {triple[1].value}, {triple[2].value}) "
                    "is not an allowed relationship"
                )
        if topological_order_of(self) is None:
            violations.append("graph contains a cycle")
        for vertex in self._vertices.values():
            if vertex.vtype is VertexType.ATTRIBUTE:
                incoming = [
                    e for e in self.in_edges(vertex.id) if e.label is EdgeLabel.HAS_ATTRIBUTES
                ]
                if len(incoming) != 1:
                    violations.append(
                        f"attribute vertex {vertex.id!r} has {len(incoming)} incoming "
                        "hasAttributes edges (expected exactly 1)"
                    )
        return ValidityReport(ok=not violations, violations=violations)


def topological_order_of(graph: ProvenanceGraph) -> list[str] | None:
    """Topological vertex order, or None if the graph has a cycle."""
    from ._dagutil import topological_order

    successors = {vid: [e.dst for e in graph.out_edges(vid)] for vid in graph.vertices}
    return topological_order(graph.vertices.keys(), successors)


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


def attrs_from_json(raw: Any) -> AttributeSet:
    if raw is None:
        return {}
    return {str(k): attr_value_from_json(v) for k, v in _docs.obj(raw, "attrs").items()}


_VERTEX_TYPES = {t.value.lower(): t for t in VertexType}


def vertex_type_from_json(value: Any) -> VertexType:
    """Vertex type names are case-insensitive, in graphs and patterns alike."""
    found = _VERTEX_TYPES.get(str(value).lower())
    if found is None:
        raise InputFormatError(f"unknown vertex type {value!r}")
    return found


def graph_from_dict(doc: Mapping[str, Any]) -> ProvenanceGraph:
    """Build a graph from the document form: {"vertices": [...], "edges": [...]}.

    Vertex entries are {id, type, name, attrs?}; edge entries are
    {src, dst, label, refinedLabel?}. Inline attrs on a main vertex are
    materialized as an Attribute vertex exactly like :meth:`add_vertex`.
    """
    doc = _docs.obj(doc, "graph document")
    graph = ProvenanceGraph()
    for entry in _docs.array(doc.get("vertices", []), '"vertices"'):
        try:
            vid, vtype, name = str(entry["id"]), entry["type"], str(entry["name"])
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"vertex entry {entry!r} needs id/type/name") from exc
        attrs = attrs_from_json(entry.get("attrs"))
        graph.add_vertex(vertex_type_from_json(vtype), name, attrs, vid=vid)
    for entry in _docs.array(doc.get("edges", []), '"edges"'):
        try:
            src, dst, label = str(entry["src"]), str(entry["dst"]), entry["label"]
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"edge entry {entry!r} needs src/dst/label") from exc
        refined = entry.get("refinedLabel")
        if refined is not None:
            refined = str(refined)
        graph.add_edge(src, dst, _docs.member(EdgeLabel, label, "edge label"), refined)
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
    for e in graph.edges:
        entry: dict[str, Any] = {"src": e.src, "dst": e.dst, "label": e.label.value}
        if e.refined is not None:
            entry["refinedLabel"] = e.refined
        edges.append(entry)
    return {"vertices": vertices, "edges": edges}


def load_graph(path: str) -> ProvenanceGraph:
    return _docs.load(path, graph_from_dict)


def dump_graph(graph: ProvenanceGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2, sort_keys=True)
        fh.write("\n")
