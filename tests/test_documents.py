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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_an_input_error(case):
    loader, doc = MALFORMED[case]
    with pytest.raises(InputFormatError):
        loader(doc)


_X = {"id": "x", "type": "artifact", "name": "x"}
_P = {"id": "p", "type": "process", "name": "p"}


def _edge(src, dst, label="wasGeneratedBy"):
    return {"src": src, "dst": dst, "label": label}


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
