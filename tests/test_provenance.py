"""Provenance graph model: construction, validation, serialization."""

import dataclasses
import gc
import json
import random
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
from provpurpose.matching import (
    MatchValue,
    PatternEdge,
    PatternVertex,
    ProvenancePartition,
    match_partition,
    match_path,
    parse_path_pattern,
)
from provpurpose.provenance import attr_value_from_json, attr_value_to_json
from oracles import reference_graph_from_dict, reference_topological_order_of
from randcases import random_lineage_dag, random_provenance_graph


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


@pytest.mark.parametrize("vtype", [VertexType.ARTIFACT, VertexType.ATTRIBUTE])
def test_a_vertex_payload_is_a_copy_of_the_callers_attrs(vtype):
    """A later change to the caller's dict does not reach the graph."""
    attrs = {"size": 4}
    g = ProvenanceGraph()
    vid = g.add_vertex(vtype, "report", attrs)
    payload = g.vertex(vid if vtype is VertexType.ATTRIBUTE else f"{vid}:att").attrs
    assert payload == attrs and payload is not attrs
    attrs["size"] = 5
    assert g.attributes_of(vid) == {"size": 4}


@pytest.mark.parametrize("vtype", [VertexType.AGENT, VertexType.ARTIFACT, VertexType.PROCESS])
def test_a_write_to_a_main_vertex_payload_raises(vtype):
    """attributes_of reads only Attribute vertices, so such a write would be lost."""
    g = ProvenanceGraph()
    vid = g.add_vertex(vtype, "x", {"size": 1})
    with pytest.raises(TypeError):
        g.vertex(vid).attrs["k"] = 1
    assert g.attributes_of(vid) == {"size": 1}
    g.vertex(f"{vid}:att").attrs["k"] = 1
    assert g.attributes_of(vid) == {"size": 1, "k": 1}


def test_the_payload_reader_shows_what_attributes_of_copies_on_random_graphs():
    """Every vertex of random graphs, some given more bundles, one of them holding an item another holds.

    A vertex with one bundle shows that bundle's payload itself, read in
    place; with several, the last to hold an item wins.
    """
    rng = random.Random(53)
    merged = 0
    for i in range(200):
        g = random_provenance_graph(rng, 6) if i % 2 else random_lineage_dag(rng, rng.randint(5, 30))
        for vid in [v.id for v in g.main_vertices()]:
            for _ in range(rng.choice((0, 0, 1, 2))):
                bundle = g.add_vertex(VertexType.ATTRIBUTE, "extra", {"k": rng.randint(0, 3), "t": "x"})
                g.add_edge(vid, bundle, EdgeLabel.HAS_ATTRIBUTES)
        for vid, vertex in g.vertices.items():
            shown = g._payload(vid)
            assert shown == g.attributes_of(vid) and shown is not g.attributes_of(vid)
            bundles = [e.dst for e in g.out_edges(vid) if e.label is EdgeLabel.HAS_ATTRIBUTES]
            if vertex.vtype is VertexType.ATTRIBUTE:
                assert shown is vertex.attrs
            elif len(bundles) == 1:
                assert shown is g.vertex(bundles[0]).attrs
            elif len(bundles) > 1:
                assert shown["k"] == g.vertex(bundles[-1]).attrs["k"]
                merged += "k" in g.vertex(bundles[0]).attrs
    assert merged > 50


def test_main_vertices_of_a_decoded_graph_share_one_payload(submission_graph):
    doc = graph_to_dict(submission_graph)
    g = graph_from_dict(doc)
    payloads = {id(v.attrs) for v in g.main_vertices()}
    assert len(payloads) == 1 and len(list(g.main_vertices())) > 1
    attribute_payloads = [v.attrs for v in g.vertices.values() if v.vtype is VertexType.ATTRIBUTE]
    assert attribute_payloads and all(type(a) is dict and id(a) not in payloads for a in attribute_payloads)
    main = [entry for entry in graph_to_dict(g)["vertices"] if entry["type"] != "Attribute"]
    assert main and all(entry["attrs"] == {} and type(entry["attrs"]) is dict for entry in main)
    assert graph_to_dict(g) == doc


def test_vertices_and_edges_carry_no_instance_dict(tiny_graph):
    objects = [*tiny_graph.vertices.values(), *tiny_graph.edges]
    assert {type(o) for o in objects} == {ProvVertex, ProvEdge}
    assert not any(hasattr(o, "__dict__") for o in objects)


def test_add_edge_builds_the_frozen_edge_the_constructor_builds():
    g = ProvenanceGraph()
    a, p = g.add_vertex(VertexType.ARTIFACT, "a"), g.add_vertex(VertexType.PROCESS, "p")
    g.add_edge(a, p, EdgeLabel.WAS_GENERATED_BY, "made")
    (edge,) = g.edges
    built = ProvEdge(a, p, EdgeLabel.WAS_GENERATED_BY, "made")
    assert edge == built and hash(edge) == hash(built) and repr(edge) == repr(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        edge.dst = a


def test_add_vertex_builds_the_frozen_vertex_the_constructor_builds():
    """A vertex renamed in place would leave the ids_of index naming it by its old name."""
    g = ProvenanceGraph()
    g.add_vertex(VertexType.ARTIFACT, "x", {"k": 1}, vid="x")
    g.add_vertex(VertexType.ATTRIBUTE, "bundle", {"k": 2}, vid="b")
    assert g.vertex("x") == ProvVertex("x", VertexType.ARTIFACT, "x", {})
    assert g.vertex("x:att") == ProvVertex("x:att", VertexType.ATTRIBUTE, "x attributes", {"k": 1})
    assert repr(g.vertex("b")) == repr(ProvVertex("b", VertexType.ATTRIBUTE, "bundle", {"k": 2}))
    for vertex in g.vertices.values():
        for f in dataclasses.fields(ProvVertex):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vertex, f.name, "y")
    assert list(g.ids_of(VertexType.ARTIFACT, "x")) == ["x"] and not g.ids_of(VertexType.ARTIFACT, "y")


def test_main_vertices_excludes_attribute_bundles(tiny_graph):
    kinds = {v.vtype for v in tiny_graph.main_vertices()}
    assert VertexType.ATTRIBUTE not in kinds
    assert len(list(tiny_graph.main_vertices())) == 3


def test_add_edge_rejects_unknown_endpoint():
    g = ProvenanceGraph()
    vid = g.add_vertex(VertexType.PROCESS, "p")
    with pytest.raises(UnknownVertexError):
        g.add_edge(vid, "ghost", EdgeLabel.USED)


def _used_edge_graph(label) -> ProvenanceGraph:
    g = ProvenanceGraph()
    g.add_vertex(VertexType.PROCESS, "anonymise", vid="p")
    g.add_vertex(VertexType.ARTIFACT, "export", vid="x")
    g.add_edge("p", "x", label)
    return g


def test_add_edge_reads_a_label_text_as_its_member():
    """A text label was once stored as it came, so no labelled pattern edge matched it."""
    by_text, by_member = _used_edge_graph("used"), _used_edge_graph(EdgeLabel.USED)
    used = ProvenancePartition(
        (PatternVertex("p", VertexType.PROCESS), PatternVertex("x", VertexType.ARTIFACT)),
        (PatternEdge("p", "x", EdgeLabel.USED),),
    )
    for g in (by_text, by_member):
        assert match_partition(used, g) is MatchValue.FULL
        assert match_path(parse_path_pattern("used|anonymise, used|x"), g) is MatchValue.FULL
        assert g.validate().ok
        (edge,) = g.edges
        assert edge == ProvEdge("p", "x", EdgeLabel.USED) and edge.label is EdgeLabel.USED
    assert graph_to_dict(by_text) == graph_to_dict(by_member)


@pytest.mark.parametrize("label", ["bogus", "Used", VertexType.ARTIFACT, None, 7, ["used"]])
def test_add_edge_rejects_anything_but_a_label_or_its_text(label):
    g = _used_edge_graph(EdgeLabel.USED)
    with pytest.raises(InputFormatError, match=r"^unknown edge label "):
        g.add_edge("p", "x", label)
    with pytest.raises(UnknownVertexError):  # the endpoints are checked first
        g.add_edge("p", "ghost", label)
    assert len(g.edges) == 1 and g.validate().ok


def test_add_vertex_reads_a_type_text_as_its_member_and_rejects_anything_else():
    g = ProvenanceGraph()
    assert g.tau(g.add_vertex("Artifact", "x", {"k": 1})) is VertexType.ARTIFACT
    for vtype in ("bogus", EdgeLabel.USED, None, ["Agent"]):
        with pytest.raises(InputFormatError, match=r"^unknown vertex type "):
            g.add_vertex(vtype, "y", vid="y")
    assert g.tau(g.add_vertex("artifact", "y", vid="y")) is VertexType.ARTIFACT  # as a document's "type" reads
    assert list(g.vertices) == ["v0", "v0:att", "y"] and g.validate().ok


def test_add_vertex_reads_an_id_or_a_name_given_as_a_number_as_its_text():
    """A number was once kept as it came, so a dump and load round trip gave a different graph."""
    g = ProvenanceGraph()
    assert g.add_vertex(VertexType.PROCESS, "p", vid=5) == "5"
    assert g.add_vertex(VertexType.ARTIFACT, 7, vid=2.5) == "2.5"
    assert [(v.id, v.name) for v in g.vertices.values()] == [("5", "p"), ("2.5", "7")]
    doc = graph_to_dict(g)
    assert graph_to_dict(graph_from_dict(doc)) == doc


@pytest.mark.parametrize("value", [True, None, ["p"], {"p": 1}, b"p"])
def test_add_vertex_rejects_an_id_or_a_name_that_is_not_a_string_or_a_number(value):
    g = ProvenanceGraph()
    with pytest.raises(InputFormatError, match=r'^vertex "name" must be a string or a number'):
        g.add_vertex(VertexType.PROCESS, value, vid="p")
    if value is not None:  # no id asks for a fresh one
        with pytest.raises(InputFormatError, match=r'^vertex "id" must be a string or a number'):
            g.add_vertex(VertexType.PROCESS, "p", vid=value)
    assert len(g.vertices) == 0


@pytest.mark.parametrize("value, message", [
    (True, "boolean attribute values are not supported"),
    (1.5, "unsupported attribute value 1.5"),
    ([1], r"unsupported attribute value \[1\]"),
    ({"timestamp": "2020-01-01"}, r"unsupported attribute value \{'timestamp': '2020-01-01'\}"),
])
def test_add_vertex_refuses_a_payload_value_of_no_kind_as_the_loader_does(value, message):
    """A payload value is a decoded one: a str, an int that is not a bool, or a datetime; nothing is stored."""
    g = ProvenanceGraph()
    with pytest.raises(InputFormatError, match=f"^{message}$"):
        g.add_vertex(VertexType.ARTIFACT, "r", {"n": 1, "x": value}, vid="r")
    if type(value) is not dict:  # a document spells a timestamp as this object
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            graph_from_dict({"vertices": [{"id": "r", "type": "Artifact", "name": "r", "attrs": {"x": value}}]})
    assert len(g.vertices) == 0
    stamp = datetime(2020, 1, 1)
    g.add_vertex(VertexType.ARTIFACT, "r", {"n": 1, "s": "a", "t": stamp}, vid="r")
    assert g.attributes_of("r") == {"n": 1, "s": "a", "t": stamp}


def test_add_edge_reads_ends_and_a_refined_label_given_as_numbers_as_their_text():
    g = ProvenanceGraph()
    g.add_vertex(VertexType.PROCESS, "p", vid="5")
    g.add_vertex(VertexType.ARTIFACT, "x", vid="7")
    g.add_edge(5, 7, "used", refined=3)
    assert g.edges == [ProvEdge("5", "7", EdgeLabel.USED, "3")]
    doc = graph_to_dict(g)
    assert graph_to_dict(graph_from_dict(doc)) == doc


@pytest.mark.parametrize(
    "src, dst, refined, field",
    [
        (None, "x", None, 'edge "src"'),
        ("p", True, None, 'edge "dst"'),
        ("p", "x", ["r"], '"refinedLabel"'),
        ("p", "x", False, '"refinedLabel"'),
    ],
)
def test_add_edge_rejects_ends_or_a_refined_label_that_are_not_strings_or_numbers(src, dst, refined, field):
    g = _used_edge_graph(EdgeLabel.USED)
    with pytest.raises(InputFormatError, match=rf"^{field} must be a string or a number"):
        g.add_edge(src, dst, EdgeLabel.USED, refined)
    assert len(g.edges) == 1 and g.validate().ok


def test_the_vertices_view_is_read_only(tiny_graph):
    """The graph once handed out its own dict: a deleted vertex made `validate` raise `KeyError`."""
    doc = graph_to_dict(tiny_graph)
    [report] = tiny_graph.ids_of(VertexType.ARTIFACT, "report")
    with pytest.raises(TypeError):
        del tiny_graph.vertices[report]
    with pytest.raises(TypeError):
        tiny_graph.vertices["ghost"] = tiny_graph.vertex(report)
    assert list(tiny_graph.vertices) == [v["id"] for v in doc["vertices"]]
    assert tiny_graph.validate().ok and graph_to_dict(tiny_graph) == doc
    assert graph_to_dict(graph_from_dict(doc)) == doc


def test_edge_accessors_return_fresh_lists_the_graph_does_not_read(submission_graph):
    doc = graph_to_dict(submission_graph)
    g = graph_from_dict(doc)
    want = [ProvEdge(e["src"], e["dst"], EdgeLabel(e["label"]), e.get("refinedLabel")) for e in doc["edges"]]
    assert any(e.refined for e in want)
    edges = g.edges
    assert edges == want and [hash(e) for e in edges] == [hash(e) for e in want]
    assert [type(e.label) for e in edges] == [EdgeLabel] * len(want)
    edges.clear()
    for vid in g.vertices:
        g.out_edges(vid).clear()
        g.in_edges(vid).append(want[0])
    assert g.edges == want and graph_to_dict(g) == doc and g.validate().ok
    for vid in g.vertices:
        assert g.out_edges(vid) == [e for e in want if e.src == vid]
        assert g.in_edges(vid) == [e for e in want if e.dst == vid]
    assert g.out_edges("ghost") == [] and g.out_edges("ghost") is not g.out_edges("ghost")


def test_a_decoded_graph_leaves_the_collector_no_edge_to_track():
    """Edges are stored as tuples of strings, which the collector stops tracking; vertices and edge lists stay."""
    layers, width = 10, 30
    vertices, edges = [], []
    for layer in range(layers):
        for i in range(width):
            vtype = "Artifact" if layer % 2 == 0 else "Process"
            attrs = {"attrs": {"rank": i, "at": {"timestamp": "2020-01-01T00:00:00"}}} if i % 3 == 0 else {}
            vertices.append({"id": f"v{layer}.{i}", "type": vtype, "name": f"n{i}", **attrs})
            label = "wasGeneratedBy" if vtype == "Process" else "used"  # from the layer before
            edges += [
                {"src": f"v{layer - 1}.{j}", "dst": f"v{layer}.{i}", "label": label, "refinedLabel": f"step {j}"}
                for j in {i, (i + 1) % width}
                if layer
            ]
    doc = {"vertices": vertices, "edges": edges}
    gc.collect()
    before = len(gc.get_objects())
    g = graph_from_dict(doc)
    gc.collect()
    grown = len(gc.get_objects()) - before
    n_edges = len(g.edges)
    out_lists = sum(bool(g.out_edges(vid)) for vid in g.vertices)
    in_lists = sum(bool(g.in_edges(vid)) for vid in g.vertices)
    assert g.validate().ok and n_edges > len(g.vertices) > layers * width
    assert grown <= len(g.vertices) + out_lists + in_lists + 20


def test_looking_up_an_unknown_vertex_raises():
    with pytest.raises(UnknownVertexError, match="^no vertex with id 'nope'$"):
        ProvenanceGraph().vertex("nope")


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


def _derivation_chain(n: int) -> ProvenanceGraph:
    """Artifacts a0..a(n-1), each derived from the one before it."""
    g = ProvenanceGraph()
    for i in range(n):
        g.add_vertex(VertexType.ARTIFACT, f"a{i}", vid=f"a{i}")
    for i in range(1, n):
        g.add_edge(f"a{i}", f"a{i - 1}", EdgeLabel.WAS_DERIVED_FROM)
    return g


def test_a_long_derivation_chain_validates_in_order():
    g = _derivation_chain(5000)
    assert g.validate().violations == []
    order = topological_order_of(g)
    assert order == [f"a{i}" for i in range(4999, -1, -1)]
    assert order == reference_topological_order_of(g)


def test_a_long_chain_with_one_back_edge_reports_one_cycle():
    g = _derivation_chain(5000)
    g.add_edge("a0", "a4999", EdgeLabel.WAS_DERIVED_FROM)
    assert g.validate().violations == ["graph contains a cycle"]
    assert topological_order_of(g) is None


def test_attribute_linkage_faults_are_reported_in_vertex_order():
    g = ProvenanceGraph()
    g.add_vertex(VertexType.AGENT, "alice", {"role": "x"}, vid="alice")
    g.add_vertex(VertexType.ATTRIBUTE, "loose", {"k": 1}, vid="loose")
    g.add_vertex(VertexType.PROCESS, "make", vid="make")
    g.add_edge("make", "alice:att", EdgeLabel.HAS_ATTRIBUTES)
    assert g.validate().violations == [
        "attribute vertex 'alice:att' has 2 incoming hasAttributes edges (expected exactly 1)",
        "attribute vertex 'loose' has 0 incoming hasAttributes edges (expected exactly 1)",
    ]


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
    with pytest.raises(InputFormatError, match="^location value must be a string$"):
        attr_value_from_json({"location": 5})


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


_TYPE_SPELLINGS = ["Agent", "artifact", "PROCESS", "Attribute", "aRtIfAcT"]
_ATTR_VALUES = st.one_of(st.integers(-2, 2), st.sampled_from(["x", "y"]))
_FLAWS = [None, None, None, "ghost", "label", "duplicate", "att", "name",
          "type", "scalar", "numeric", "attrs", "entry"]
# Values of the wrong shape, one per JSON kind the field does not take.
_BAD_TYPES = [7, None, True, ["Agent"], {"type": "Agent"}, "thing"]
_BAD_SCALARS = [None, True, False, ["v0"], {"id": "v0"}]
_BAD_ATTRS = [{"k": True}, {"k": None}, [["k", 1]], "k", 5]
_BAD_ENTRIES = ["v0", 7, None, ["v0", "Agent", "a"]]


@st.composite
def graph_documents(draw):
    """Graph documents with attrs on any vertex, refined labels, illegal
    triples, cycles and orphan Attribute vertices; most of them carry one
    malformed entry: a missing endpoint, a bad label, a duplicate id, an
    empty name, a bad vertex type, a null/boolean/array name, id or refined
    label, bad attrs, a non-object entry or a missing field. Some use numbers
    for an id and the edge ends that name it, which decode as their text."""
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
    flaw = draw(st.sampled_from(_FLAWS))
    vertex = vertices[draw(st.integers(0, n - 1))] if vertices else None
    if flaw == "name" and vertex:
        vertex["name"] = ""
    elif flaw == "type" and vertex:
        vertex["type"] = draw(st.sampled_from(_BAD_TYPES))
    elif flaw == "attrs" and vertex:
        vertex["attrs"] = draw(st.sampled_from(_BAD_ATTRS))
    elif flaw == "scalar" and vertex:
        field = draw(st.sampled_from(["id", "name", "refinedLabel"] if edges else ["id", "name"]))
        entry = edges[draw(st.integers(0, len(edges) - 1))] if field == "refinedLabel" else vertex
        entry[field] = draw(st.sampled_from(_BAD_SCALARS))
    elif flaw == "numeric" and vertex:
        i = int(vertex["id"][1:])
        vertex["id"] = i
        for edge in edges:
            for end in ("src", "dst"):
                edge[end] = {f"v{i}": i, f"v{i}:att": f"{i}:att"}.get(edge[end], edge[end])
    elif flaw == "entry" and vertices:
        kind = draw(st.sampled_from(["vertices", "edges"] if edges else ["vertices"]))
        entries = vertices if kind == "vertices" else edges
        k = draw(st.integers(0, len(entries) - 1))
        if draw(st.booleans()):
            entries[k] = draw(st.sampled_from(_BAD_ENTRIES))
        else:
            del entries[k][draw(st.sampled_from(sorted(entries[k])))]
    elif flaw in ("duplicate", "att") and vertices:
        twin = draw(st.sampled_from(ids if flaw == "duplicate" else [f"v{i}:att" for i in range(n)]))
        vertices.insert(draw(st.integers(0, n)), {"id": twin, "type": "Attribute", "name": "twin"})
    elif flaw in ("ghost", "label") and edges:
        edge = edges[draw(st.integers(0, len(edges) - 1))]
        for end in draw(st.sampled_from([("src",), ("dst",), ("src", "dst")])):
            edge[end] = f"ghost {end}"
        if flaw == "label":
            edge["label"] = draw(st.sampled_from(["begat", 7, None, ["used"]]))
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
    assert topological_order_of(got) == reference_topological_order_of(want)
