"""Provenance graph model: construction, validation, serialization."""

import json
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provpurpose import (
    ALLOWED_EDGES,
    EdgeLabel,
    InputFormatError,
    ProvEdge,
    ProvenanceGraph,
    ProvPurposeError,
    ProvVertex,
    UnknownVertexError,
    VertexType,
    dump_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    topological_order_of,
)
from provpurpose.provenance import attr_value_from_json, attr_value_to_json
from oracles import reference_graph_from_dict


def test_add_vertex_assigns_ids_and_types():
    g = ProvenanceGraph()
    a = g.add_vertex(VertexType.AGENT, "alice")
    b = g.add_vertex(VertexType.PROCESS, "ingest")
    assert a != b
    assert g.tau(a) is VertexType.AGENT
    assert g.vertex(b).name == "ingest"


def test_ids_of_indexes_type_and_name_and_follows_mutation():
    g = ProvenanceGraph()
    a = g.add_vertex(VertexType.ARTIFACT, "report", vid="a")
    assert list(g.ids_of(VertexType.ARTIFACT)) == ["a"]
    assert list(g.ids_of(VertexType.PROCESS)) == []
    b = g.add_vertex(VertexType.ARTIFACT, "draft", {"size": 1}, vid="b")
    c = g.add_vertex(VertexType.ARTIFACT, "report", vid="c")
    assert list(g.ids_of(VertexType.ARTIFACT)) == [a, b, c]
    assert list(g.ids_of(VertexType.ARTIFACT, "report")) == [a, c]
    assert list(g.ids_of(VertexType.ATTRIBUTE)) == ["b:att"]
    assert list(g.ids_of(VertexType.ARTIFACT, "ghost")) == []


def test_only_add_vertex_drops_the_ids_of_index():
    g = ProvenanceGraph()
    a = g.add_vertex(VertexType.ARTIFACT, "report", vid="a")
    p = g.add_vertex(VertexType.PROCESS, "make", vid="p")
    artifacts = g.ids_of(VertexType.ARTIFACT)
    g.add_edge(a, p, EdgeLabel.WAS_GENERATED_BY)
    assert g.ids_of(VertexType.ARTIFACT) is artifacts
    b = g.add_vertex(VertexType.ARTIFACT, "draft", vid="b")
    assert list(g.ids_of(VertexType.ARTIFACT)) == [a, b]


def test_attrs_materialize_as_attribute_vertex():
    g = ProvenanceGraph()
    vid = g.add_vertex(VertexType.ARTIFACT, "report", attrs={"size": 4})
    att_id = f"{vid}:att"
    assert g.tau(att_id) is VertexType.ATTRIBUTE
    assert g.vertex(vid).attrs == {}
    assert g.attributes_of(vid) == {"size": 4}
    assert g.attributes_of(att_id) == {"size": 4}
    links = [e for e in g.out_edges(vid) if e.label is EdgeLabel.HAS_ATTRIBUTES]
    assert len(links) == 1 and links[0].dst == att_id


def test_vertices_and_edges_carry_no_instance_dict(tiny_graph):
    objects = [*tiny_graph.vertices.values(), *tiny_graph.edges]
    assert {type(o) for o in objects} == {ProvVertex, ProvEdge}
    assert not any(hasattr(o, "__dict__") for o in objects)


def test_main_vertices_excludes_attribute_bundles(tiny_graph):
    kinds = {v.vtype for v in tiny_graph.main_vertices()}
    assert VertexType.ATTRIBUTE not in kinds
    assert len(list(tiny_graph.main_vertices())) == 3


def test_add_edge_rejects_unknown_endpoint():
    g = ProvenanceGraph()
    vid = g.add_vertex(VertexType.PROCESS, "p")
    with pytest.raises(UnknownVertexError):
        g.add_edge(vid, "ghost", EdgeLabel.USED)


def test_validate_accepts_legal_graph(tiny_graph):
    report = tiny_graph.validate()
    assert report.ok and report.violations == []


def test_validate_flags_illegal_triple():
    g = ProvenanceGraph()
    agent = g.add_vertex(VertexType.AGENT, "a")
    art = g.add_vertex(VertexType.ARTIFACT, "x")
    g.add_edge(agent, art, EdgeLabel.USED)  # agents never use artifacts
    report = g.validate()
    assert not report.ok
    assert any("not an allowed relationship" in v for v in report.violations)


def test_validate_flags_cycle():
    g = ProvenanceGraph()
    a1 = g.add_vertex(VertexType.ARTIFACT, "a1")
    a2 = g.add_vertex(VertexType.ARTIFACT, "a2")
    g.add_edge(a1, a2, EdgeLabel.WAS_DERIVED_FROM)
    g.add_edge(a2, a1, EdgeLabel.WAS_DERIVED_FROM)
    report = g.validate()
    assert not report.ok
    assert any("cycle" in v for v in report.violations)
    assert topological_order_of(g) is None


def test_validate_flags_orphan_attribute_vertex():
    g = ProvenanceGraph()
    g.add_vertex(VertexType.ATTRIBUTE, "loose", attrs={"k": 1})
    report = g.validate()
    assert not report.ok
    assert any("hasAttributes" in v for v in report.violations)


def test_allowed_edges_is_the_eight_triple_set():
    assert len(ALLOWED_EDGES) == 8
    assert (VertexType.PROCESS, VertexType.ARTIFACT, EdgeLabel.USED) in ALLOWED_EDGES
    assert (VertexType.AGENT, VertexType.ARTIFACT, EdgeLabel.USED) not in ALLOWED_EDGES


def test_attr_value_json_round_trip():
    stamp = datetime(2009, 3, 1, 10, 30)
    assert attr_value_from_json(attr_value_to_json(stamp)) == stamp
    assert attr_value_from_json(attr_value_to_json("plain")) == "plain"
    assert attr_value_from_json(attr_value_to_json(7)) == 7
    assert attr_value_from_json({"location": "ward 3"}) == "ward 3"


def test_attr_value_rejects_bool_and_junk():
    with pytest.raises(InputFormatError):
        attr_value_from_json(True)
    with pytest.raises(InputFormatError):
        attr_value_from_json([1, 2])
    with pytest.raises(InputFormatError):
        attr_value_from_json({"timestamp": "not a date"})


def test_graph_document_round_trip(tiny_graph):
    doc = graph_to_dict(tiny_graph)
    again = graph_from_dict(doc)
    assert graph_to_dict(again) == doc
    assert set(again.vertices) == set(tiny_graph.vertices)


def test_dump_graph_round_trips_through_load_graph(tmp_path):
    g = ProvenanceGraph()
    proc = g.add_vertex(VertexType.PROCESS, "ingest", attrs={"timestamp": datetime(2009, 3, 1, 10, 30)})
    art = g.add_vertex(VertexType.ARTIFACT, "report")
    g.add_edge(art, proc, EdgeLabel.WAS_GENERATED_BY)
    path = tmp_path / "graph.json"
    dump_graph(g, str(path))
    assert path.read_text(encoding="utf-8").endswith("}\n")
    assert graph_to_dict(load_graph(str(path))) == graph_to_dict(g)


def test_graph_from_dict_accepts_lowercase_types():
    g = graph_from_dict(
        {
            "vertices": [{"id": "x", "type": "agent", "name": "a"}],
            "edges": [],
        }
    )
    assert g.tau("x") is VertexType.AGENT


def test_load_graph_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [}', encoding="utf-8")
    with pytest.raises(InputFormatError) as err:
        load_graph(str(bad))
    assert "line 1" in str(err.value)


def test_load_graph_case_study_fixture(submission_graph):
    assert submission_graph.validate().ok
    names = {v.name for v in submission_graph.main_vertices()}
    assert {"Submit", "Grade", "homework_1", "comments"} <= names
    refined = {e.refined for e in submission_graph.edges if e.refined}
    assert refined == {"wasSubmittedBy", "wasGradedby"}


_VTYPES = [VertexType.AGENT, VertexType.ARTIFACT, VertexType.PROCESS]


@st.composite
def legal_graphs(draw):
    """Random graphs built only from allowed triples, acyclic by construction."""
    n = draw(st.integers(min_value=1, max_value=7))
    g = ProvenanceGraph()
    ids = [
        g.add_vertex(draw(st.sampled_from(_VTYPES)), f"node{i}")
        for i in range(n)
    ]
    legal = [t for t in ALLOWED_EDGES if t[1] is not VertexType.ATTRIBUTE]
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(n_edges):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i >= j:
            continue  # edges only point to earlier-created vertices: acyclic
        src, dst = ids[j], ids[i]
        for s_type, d_type, label in legal:
            if g.tau(src) is s_type and g.tau(dst) is d_type:
                g.add_edge(src, dst, label)
                break
    return g


@settings(max_examples=60, deadline=None)
@given(legal_graphs())
def test_legal_random_graphs_validate_and_round_trip(g):
    assert g.validate().ok
    doc = graph_to_dict(g)
    again = graph_from_dict(json.loads(json.dumps(doc)))
    assert graph_to_dict(again) == doc


_TYPE_SPELLINGS = ["Agent", "artifact", "PROCESS", "Attribute"]
_ATTR_VALUES = st.one_of(st.integers(-2, 2), st.sampled_from(["x", "y"]))


@st.composite
def graph_documents(draw):
    """Graph documents with attrs on any vertex, refined labels, illegal
    triples, cycles and orphan Attribute vertices; most of them carry one
    malformed entry: a missing endpoint, a bad label, a duplicate id or an
    empty name."""
    n = draw(st.integers(min_value=0, max_value=8))
    vertices = []
    for i in range(n):
        entry = {
            "id": f"v{i}",
            "type": draw(st.sampled_from(_TYPE_SPELLINGS)),
            "name": draw(st.sampled_from("abc")),
        }
        if draw(st.booleans()):
            entry["attrs"] = draw(st.dictionaries(st.sampled_from(["k", "size"]), _ATTR_VALUES, max_size=2))
        vertices.append(entry)
    ids = [v["id"] for v in vertices] + [f"{v['id']}:att" for v in vertices if v.get("attrs")]
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n if ids else 0))):
        edge = {
            "src": draw(st.sampled_from(ids)),
            "dst": draw(st.sampled_from(ids)),
            "label": draw(st.sampled_from([label.value for label in EdgeLabel])),
        }
        if draw(st.integers(0, 3)) == 0:
            edge["refinedLabel"] = draw(st.sampled_from(["wasSubmittedBy", 7]))
        edges.append(edge)
    flaw = draw(st.sampled_from([None, None, None, "ghost", "label", "duplicate", "att", "name"]))
    if flaw == "name" and vertices:
        vertices[draw(st.integers(0, n - 1))]["name"] = ""
    elif flaw in ("duplicate", "att") and vertices:
        twin = draw(st.sampled_from(ids if flaw == "duplicate" else [f"v{i}:att" for i in range(n)]))
        vertices.insert(draw(st.integers(0, n)), {"id": twin, "type": "Attribute", "name": "twin"})
    elif flaw in ("ghost", "label") and edges:
        edge = edges[draw(st.integers(0, len(edges) - 1))]
        for end in draw(st.sampled_from([("src",), ("dst",), ("src", "dst")])):
            edge[end] = f"ghost {end}"
        if flaw == "label":
            edge["label"] = "begat"
    return {"vertices": vertices, "edges": edges}


def _decode(decoder, doc):
    """The graph a decoder builds, or the class and message of what it raised."""
    try:
        return decoder(doc), None
    except ProvPurposeError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(graph_documents())
def test_one_pass_decode_matches_the_edge_by_edge_decoder(doc):
    got, got_error = _decode(graph_from_dict, doc)
    want, want_error = _decode(reference_graph_from_dict, doc)
    assert got_error == want_error
    if want is None:
        return
    assert list(got.vertices) == list(want.vertices)
    assert list(got.vertices.values()) == list(want.vertices.values())
    assert got.edges == want.edges
    for vid in want.vertices:
        assert got.out_edges(vid) == want.out_edges(vid)
        assert got.in_edges(vid) == want.in_edges(vid)
    assert got.validate().violations == want.validate().violations
    assert topological_order_of(got) == topological_order_of(want)
