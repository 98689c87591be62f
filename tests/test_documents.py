"""Document readers: every malformed document is an InputFormatError."""

import pytest

from provpurpose import (
    InputFormatError,
    PatternSyntaxError,
    ProvPurposeError,
    VertexType,
    graph_from_dict,
    load_graph,
    load_policy,
    load_request,
    policy_from_dict,
    purpose_graph_from_dict,
    request_from_dict,
    role_order_from_dict,
)
from oracles import reference_graph_from_dict


def _policy_with(condition):
    return {"provenance_partitions": {"c": condition}}


def _partition_vertex(vertex):
    return _policy_with({"partition": {"vertices": [vertex]}})


_X = {"id": "x", "type": "artifact", "name": "x"}
_P = {"id": "p", "type": "process", "name": "p"}


def _edge(src, dst, label="wasGeneratedBy"):
    return {"src": src, "dst": dst, "label": label}


def _ref(ref):
    return {"ref": ref, "type": "process"}


MALFORMED = {
    "vertex condition not an array": (policy_from_dict, _policy_with({"vertex": 5})),
    "vertex condition of three items": (
        policy_from_dict, _policy_with({"vertex": ["agent", "alice", "x"]})
    ),
    "attr condition of two items": (policy_from_dict, _policy_with({"attr": ["artifact", "report"]})),
    "query condition null": (policy_from_dict, _policy_with({"query": None})),
    "partition vertex without ref": (policy_from_dict, _partition_vertex({"type": "process"})),
    "partition vertex a string": (policy_from_dict, _partition_vertex("v")),
    "partition a number": (policy_from_dict, _policy_with({"partition": 3})),
    "partition vertices a number": (policy_from_dict, _policy_with({"partition": {"vertices": 3}})),
    "attrs constraint of two items": (
        policy_from_dict,
        _partition_vertex({"ref": "v", "type": "process", "attrs": [["size", "="]]}),
    ),
    "AP a number": (policy_from_dict, {**_policy_with({"null": None}), "AP": 5}),
    "graph vertices a number": (graph_from_dict, {"vertices": 5}),
    "graph edges a number": (graph_from_dict, {"vertices": [], "edges": 5}),
    # values a coercing reader would misread instead of rejecting
    "AP a string": (policy_from_dict, {**_policy_with({"null": None}), "AP": "abc"}),
    "policy type true": (policy_from_dict, {**_policy_with({"null": None}), "type": True}),
    "hierarchy_line true": (purpose_graph_from_dict, {"purposes": ["a"], "hierarchy_line": True}),
    "query_attrs an empty array": (request_from_dict, {"subject": "s", "query_attrs": []}),
    # a scalar field that is not a string or a number, with the field the error names
    "vertex id null": (graph_from_dict, {"vertices": [{**_X, "id": None}]}, 'vertex "id"'),
    "vertex name null": (graph_from_dict, {"vertices": [{**_X, "name": None}]}, 'vertex "name"'),
    "edge src null": (
        graph_from_dict, {"vertices": [{**_X, "id": "None"}, _P], "edges": [_edge(None, "p")]}, 'edge "src"'
    ),
    "edge dst true": (
        graph_from_dict, {"vertices": [_X, {**_P, "id": "True"}], "edges": [_edge("x", True)]}, 'edge "dst"'
    ),
    "refinedLabel true": (
        graph_from_dict,
        {"vertices": [_X, _P], "edges": [{**_edge("x", "p"), "refinedLabel": True}]},
        '"refinedLabel"',
    ),
    "partition ref null": (policy_from_dict, _partition_vertex(_ref(None)), 'partition vertex "ref"'),
    "partition name false": (
        policy_from_dict, _partition_vertex({**_ref("v"), "name": False}), 'partition vertex "name"'
    ),
    "partition edge src null": (
        policy_from_dict,
        _policy_with({"partition": {"vertices": [_ref("None"), _ref("v")], "edges": [[None, "v", "*"]]}}),
        "partition edge end",
    ),
    "partition edge dst false": (
        policy_from_dict,
        _policy_with({"partition": {"vertices": [_ref("v"), _ref("False")], "edges": [["v", False, "*"]]}}),
        "partition edge end",
    ),
    "constraint item null": (
        policy_from_dict,
        _partition_vertex({**_ref("v"), "attrs": [[None, "=", 1]]}),
        "attribute constraint item",
    ),
    "vertex condition name null": (
        policy_from_dict, _policy_with({"vertex": ["agent", None]}), "vertex condition name"
    ),
    "attr condition name null": (
        policy_from_dict, _policy_with({"attr": ["artifact", None, "size", "=", 1]}), "attr condition name"
    ),
    "attr condition item true": (
        policy_from_dict, _policy_with({"attr": ["artifact", "r", True, "=", 1]}), "attribute constraint item"
    ),
    "query condition name an array": (
        policy_from_dict, _policy_with({"query": ["artifact", ["r"], "size", "="]}), "query condition name"
    ),
    "query condition attribute null": (
        policy_from_dict, _policy_with({"query": ["artifact", "r", None, "="]}), "query attribute"
    ),
    "path null": (policy_from_dict, _policy_with({"path": None}), "path pattern"),
    "path an array": (policy_from_dict, _policy_with({"path": ["used|x"]}), "path pattern"),
    "target null": (policy_from_dict, _policy_with({"target": None}), "target"),
    "target an object": (policy_from_dict, _policy_with({"target": {"artifact": "x"}}), "target"),
    "policy id true": (policy_from_dict, {**_policy_with({"null": None}), "id": True}, 'policy "id"'),
    "request subject null": (request_from_dict, {"subject": None}, 'request "subject"'),
    "request category false": (request_from_dict, {"subject": "s", "category": False}, 'request "category"'),
    "purpose edge parent true": (
        purpose_graph_from_dict, {"purposes": ["True", "a"], "edges": [[True, "a"]]}, "purpose edge end"
    ),
    "purpose edge child null": (
        purpose_graph_from_dict, {"purposes": ["a", "None"], "edges": [["a", None]]}, "purpose edge end"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_an_input_error(case):
    loader, doc, *field = MALFORMED[case]
    with pytest.raises(InputFormatError) as err:
        loader(doc)
    for what in field:
        assert str(err.value).startswith(f"{what} must be a string or a number")


def test_a_branch_decodes_its_children_before_it_reads_its_operator():
    """The children array is the document's shape, which a loader reads; the branch reads its own operator."""
    doc = {"provenance_partitions": {"c": {"null": {}}}, "access_tree": {"XOR": "c"}}
    with pytest.raises(InputFormatError, match="^XOR children must be an array$"):
        policy_from_dict(doc)
    with pytest.raises(InputFormatError, match="^unknown tree operator 'XOR'$"):
        policy_from_dict({**doc, "access_tree": {"XOR": ["c"]}})


def test_a_null_edge_label_is_no_wildcard():
    """A partition document's wildcard is "*"; null, which a pattern edge built in Python reads as one, labels nothing."""
    doc = _policy_with({"partition": {"vertices": [_ref("u"), _ref("v")], "edges": [["u", "v", None]]}})
    with pytest.raises(InputFormatError, match="^unknown edge label None$"):
        policy_from_dict(doc)
    wildcard = policy_from_dict(_policy_with({"partition": {"vertices": [_ref("u"), _ref("v")], "edges": [["u", "v", "*"]]}}))
    assert wildcard.tree.condition.edges[0].label is None


def test_null_in_an_optional_field_is_absent_and_a_number_keeps_its_text():
    pol = policy_from_dict({**_partition_vertex({**_ref(1), "name": None}), "id": None}, default_id="p0")
    assert pol.id == "p0"
    assert (pol.tree.condition.vertices[0].ref, pol.tree.condition.vertices[0].name) == ("1", None)
    assert policy_from_dict({**_policy_with({"null": None}), "id": 7}).id == "7"
    request, _ = request_from_dict({"subject": 7, "category": None})
    assert (request.subject, request.category) == ("7", None)
    g = graph_from_dict(
        {"vertices": [{**_X, "id": 1, "name": 2.5}, _P], "edges": [{**_edge(1, "p"), "refinedLabel": None}]}
    )
    assert (g.vertex("1").name, g.edges[0].refined) == ("2.5", None)
    pg = purpose_graph_from_dict({"purposes": ["1", "a"], "edges": [[1, "a"]]})
    assert pg.parents("a") == {"1"}


MALFORMED_GRAPHS = {
    "edge from a missing src": {"vertices": [_X, _P], "edges": [_edge("ghost", "p")]},
    "edge to a missing dst": {"vertices": [_X, _P], "edges": [_edge("x", "p"), _edge("x", "ghost")]},
    "edge between two missing vertices": {"vertices": [_X], "edges": [_edge("ghost1", "ghost2")]},
    "duplicate id": {"vertices": [_X, _P, {**_P, "type": "agent"}]},
    "duplicate x:att after an attributed x": {
        "vertices": [{**_X, "attrs": {"size": 1}}, {"id": "x:att", "type": "attribute", "name": "more"}],
    },
    "attributed x after an x:att": {
        "vertices": [{"id": "x:att", "type": "attribute", "name": "more"}, {**_X, "attrs": {"size": 1}}],
    },
    "empty name": {"vertices": [_P, {**_X, "name": ""}]},
    "empty name on a duplicate id": {"vertices": [_X, {**_X, "name": ""}]},
    "bad type and an empty name": {"vertices": [{**_X, "type": "thing", "name": ""}]},
    "bad attrs and a bad type": {"vertices": [{**_X, "type": "thing", "attrs": {"ok": True}}]},
    "bad label and a missing endpoint": {"vertices": [_X], "edges": [_edge("x", "ghost", "begat")]},
    "edge without a label to a missing endpoint": {"vertices": [_X], "edges": [{"src": "x", "dst": "ghost"}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_raises_what_the_edge_by_edge_decoder_raised(case):
    doc = MALFORMED_GRAPHS[case]
    with pytest.raises(ProvPurposeError) as want:
        reference_graph_from_dict(doc)
    with pytest.raises(ProvPurposeError) as got:
        graph_from_dict(doc)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize(
    "loader, doc",
    [
        (policy_from_dict, {**_policy_with({"null": None}), "subject": ["students", 7]}),
        (request_from_dict, {"subject": "s", "attached_purposes": "education"}),
        (role_order_from_dict, {"student": ["students", None]}),
        (purpose_graph_from_dict, {"purposes": ["a", 1]}),
    ],
)
def test_name_lists_are_arrays_of_strings(loader, doc):
    with pytest.raises(InputFormatError):
        loader(doc)


def test_vertex_types_are_case_insensitive_in_graphs_and_patterns():
    g = graph_from_dict({"vertices": [{"id": "p", "type": "PROCESS", "name": "Submit"}]})
    assert g.tau("p") is VertexType.PROCESS
    pol = policy_from_dict(_policy_with({"vertex": ["PROCESS", "Submit"]}))
    assert pol.tree.condition.vtype is VertexType.PROCESS


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b'{"vertices": [], "n": ' + b"9" * 5000 + b"}"],
    ids=["not utf-8", "5000-digit integer"],
)
def test_unreadable_json_file_is_an_input_error(tmp_path, content):
    path = tmp_path / "graph.json"
    path.write_bytes(content)
    with pytest.raises(InputFormatError, match="graph.json"):
        load_graph(str(path))


def test_a_decode_error_gains_the_path_and_keeps_its_class_and_position(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text('{"provenance_partitions": {"p": {"path": "((("}}}')
    with pytest.raises(PatternSyntaxError) as err:
        load_policy(str(path))
    assert err.value.position == 0
    assert str(err.value) == f"{path}: step '(((' is not LABEL|NAME (at position 0)"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_standard_json_numbers_are_refused(tmp_path, constant):
    path = tmp_path / "graph.json"
    path.write_text('{"vertices": [{"id": "a", "type": "Agent", "name": %s}], "edges": []}' % constant)
    with pytest.raises(InputFormatError) as err:
        load_graph(str(path))
    assert str(err.value) == f"{path}: {constant} is not a JSON number"


@pytest.mark.parametrize(
    "load, text, literal",
    [
        (load_graph, '{"vertices": [{"id": "a", "type": "Agent", "name": 1e400}], "edges": []}', "1e400"),
        (load_graph, '{"vertices": [{"id": 1e999, "type": "Agent", "name": "a"}], "edges": []}', "1e999"),
        (load_request, '{"subject": 1e400, "category": -1e400}', "1e400"),
        (
            load_graph,
            '{"vertices": [{"id": "a", "type": "Agent", "name": "a", "attrs": {"size": -1e999}}], "edges": []}',
            "-1e999",
        ),
    ],
)
def test_numbers_too_large_for_a_float_are_refused(tmp_path, load, text, literal):
    """Python's reader would take each of these as infinity, and text would read it as "inf"."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(InputFormatError) as err:
        load(str(path))
    assert str(err.value) == f"{path}: {literal} is too large to read as a number"


def test_the_largest_floats_still_load(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text('{"vertices": [{"id": "a", "type": "Agent", "name": 1.7e308}], "edges": []}')
    (vertex,) = load_graph(str(path)).vertices.values()
    assert vertex.name == "1.7e+308"
