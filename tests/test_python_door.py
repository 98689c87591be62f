"""A field given in Python is read as its document's field is.

Each input object's constructor is the one reader of its fields; the loaders
hand it their documents' fields as they are. So for a field of any kind, a
list, tuple, set, generator, str, bytes, None, bool, int, float (NaN
included) or dict, exactly one of three outcomes follows:

* construction raises the error the loader raises for the same field: an
  :class:`InputFormatError`, or the :class:`PatternSyntaxError` of a pattern;
* the object decides, under fresh configs, exactly as the twin that the
  loaders build from a document holding the field's document form;
* the decision raises a :class:`StageError`, and so does the twin's.

Any other exception fails. Where the field's value is its own document form,
a scalar or an object that the loader defaults from no null, a refusal must
also be the loader's, word for word.
"""

import json
import math
import tempfile
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from provpurpose import (
    AttrCondition,
    AttrConstraint,
    DataRecord,
    EdgeLabel,
    HierarchicalPurposeSet,
    InputFormatError,
    NullCondition,
    PartyConfig,
    PartyResult,
    PathPattern,
    PathStep,
    PatternEdge,
    PatternSyntaxError,
    PatternVertex,
    Policy,
    Predicate,
    ProvenanceGraph,
    ProvenancePartition,
    PurposeGraph,
    QueryCondition,
    Request,
    StageError,
    TargetCondition,
    TreeBranch,
    TreeLeaf,
    TreeOp,
    VertexCondition,
    VertexType,
    decide,
    graph_from_dict,
    graph_to_dict,
    outcome_to_dict,
    party_result_from_dict,
    policy_from_dict,
    request_from_dict,
)
from provpurpose.cli import _party_from_file

REFUSALS = (InputFormatError, PatternSyntaxError)
NO_FORM = object()  # the document form of a value no document can hold, such as bytes

PG = PurposeGraph(["a", "b"], [], hierarchy_line=0)


def _graph():
    g = ProvenanceGraph()
    report = g.add_vertex(VertexType.ARTIFACT, "report", {"n": 7})
    insert = g.add_vertex(VertexType.PROCESS, "Insert")
    g.add_edge(report, insert, EdgeLabel.WAS_GENERATED_BY)
    g.add_edge(insert, g.add_vertex(VertexType.AGENT, "alice"), EdgeLabel.WAS_CONTROLLED_BY)
    return g


RECORD = DataRecord(_graph(), "records")

# -- the decision's inputs, built in Python and written as documents --------------------------------

A, A_DOC = (
    PatternVertex("a", "Artifact", "report", (AttrConstraint("n", ">", 5),)),
    {"ref": "a", "type": "Artifact", "name": "report", "attrs": [["n", ">", 5]]},
)
P, P_DOC = PatternVertex("p", "Process", "Insert"), {"ref": "p", "type": "Process", "name": "Insert"}
E, E_DOC = PatternEdge("a", "p", "wasGeneratedBy"), ["a", "p", "wasGeneratedBy"]
ALICE, NULL = TreeLeaf(VertexCondition("agent", "alice")), TreeLeaf(NullCondition())
STEPS = (PathStep("x", "report"), PathStep("wasGeneratedBy", "Insert"))
TARGET = '/artifact[name="report"]/process'


def _python_inputs(field, value):
    """The parties and the request of a decision built in Python, with `value` as `field`."""
    def at(name, default):
        return value if field == name else default

    vertex = PatternVertex(
        at("PatternVertex.ref", "a"), at("PatternVertex.vtype", "Artifact"), at("PatternVertex.name", "report"),
        at("PatternVertex.constraints", (
            AttrConstraint(at("AttrConstraint.item", "n"), at("AttrConstraint.pred", ">"), at("AttrConstraint.operand", 5)),
        )),
    )
    edge = PatternEdge(at("PatternEdge.src", "a"), at("PatternEdge.dst", "p"), at("PatternEdge.label", "wasGeneratedBy"))
    step = PathStep(at("PathStep.label", "x"), at("PathStep.name", "report"))
    policies = [
        Policy("vx", 1, TreeLeaf(ProvenancePartition((vertex,))), ap={"a"}),
        Policy("pe", 1, TreeLeaf(ProvenancePartition((A, P), (edge,))), ap={"a"}),
        Policy("pp", 1, TreeLeaf(ProvenancePartition(
            at("ProvenancePartition.vertices", (A, P)), at("ProvenancePartition.edges", (E,)),
        )), ap={"a"}),
        Policy("path", 1, TreeLeaf(PathPattern(at("PathPattern.steps", (step, STEPS[1])))), ap={"a"}),
        Policy("vc", 1, TreeLeaf(VertexCondition(
            at("VertexCondition.vtype", "agent"), at("VertexCondition.name", "alice"),
        )), ap={"b"}),
        Policy("ac", 1, TreeLeaf(AttrCondition(
            at("AttrCondition.vtype", "artifact"), at("AttrCondition.name", "report"),
            at("AttrCondition.item", "n"), at("AttrCondition.pred", ">="), at("AttrCondition.operand", 7),
        )), ap={"a"}),
        Policy("qc", 1, TreeLeaf(QueryCondition(
            at("QueryCondition.vtype", "artifact"), at("QueryCondition.name", "report"),
            at("QueryCondition.query_attr", "n"), at("QueryCondition.pred", ">"),
        )), ap={"a"}),
        Policy("tc", 1, TreeLeaf(TargetCondition(at("TargetCondition.text", TARGET))), ap={"b"}),
        Policy("tb", 1, TreeBranch(at("TreeBranch.op", "OR"), at("TreeBranch.children", (ALICE, NULL))), ap={"a"}),
        Policy(
            at("Policy.id", "pol"), at("Policy.ptype", 4), NULL, ap=at("Policy.ap", ["a"]), pp=at("Policy.pp", ["b"]),
            subjects=at("Policy.subjects", ["clerk"]), categories=at("Policy.categories", ["records"]),
        ),
    ]
    party = PartyConfig(
        at("PartyConfig.party", "owner"), at("PartyConfig.policies", policies), at("PartyConfig.internal_expr", None)
    )
    request = Request(at("Request.subject", "clerk"), at("Request.category", "records"), at("Request.query_attrs", {"n": 5}))
    return [party], request


def _policy_docs(field, value):
    """The policy documents of the decision, with `value`, a document form, as `field`."""
    def at(name, default):
        return value if field == name else default

    def doc(pid, cond, ap, tree="c", **rest):
        return {"id": pid, "type": 1, "provenance_partitions": {"c": cond}, "access_tree": tree, "AP": ap, **rest}

    vertex = {
        "ref": at("PatternVertex.ref", "a"), "type": at("PatternVertex.vtype", "Artifact"),
        "name": at("PatternVertex.name", "report"),
        "attrs": at("PatternVertex.constraints", [
            [at("AttrConstraint.item", "n"), at("AttrConstraint.pred", ">"), at("AttrConstraint.operand", 5)],
        ]),
    }
    edge = [at("PatternEdge.src", "a"), at("PatternEdge.dst", "p"), at("PatternEdge.label", "wasGeneratedBy")]
    steps = at("PathPattern.steps", [f"{at('PathStep.label', 'x')}|{at('PathStep.name', 'report')}", "wasGeneratedBy|Insert"])
    leaves = {"alice": {"vertex": ["agent", "alice"]}, "null": {"null": {}}}
    pol = {
        "type": at("Policy.ptype", 4), "provenance_partitions": {"c": {"null": {}}}, "access_tree": "c",
        "AP": at("Policy.ap", ["a"]), "PP": at("Policy.pp", ["b"]),
        "subject": at("Policy.subjects", ["clerk"]), "category": at("Policy.categories", ["records"]),
    }
    return [
        doc("vx", {"partition": {"vertices": [vertex]}}, ["a"]),
        doc("pe", {"partition": {"vertices": [A_DOC, P_DOC], "edges": [edge]}}, ["a"]),
        doc("pp", {"partition": {
            "vertices": at("ProvenancePartition.vertices", [A_DOC, P_DOC]), "edges": at("ProvenancePartition.edges", [E_DOC]),
        }}, ["a"]),
        doc("path", {"path": ", ".join(steps)}, ["a"]),
        doc("vc", {"vertex": [at("VertexCondition.vtype", "agent"), at("VertexCondition.name", "alice")]}, ["b"]),
        doc("ac", {"attr": [
            at("AttrCondition.vtype", "artifact"), at("AttrCondition.name", "report"),
            at("AttrCondition.item", "n"), at("AttrCondition.pred", ">="), at("AttrCondition.operand", 7),
        ]}, ["a"]),
        doc("qc", {"query": [
            at("QueryCondition.vtype", "artifact"), at("QueryCondition.name", "report"),
            at("QueryCondition.query_attr", "n"), at("QueryCondition.pred", ">"),
        ]}, ["a"]),
        doc("tc", {"target": at("TargetCondition.text", TARGET)}, ["b"]),
        {"id": "tb", "type": 1, "provenance_partitions": leaves, "AP": ["a"],
         "access_tree": {at("TreeBranch.op", "OR"): at("TreeBranch.children", ["alice", "null"])}},
        {**pol, "id": at("Policy.id", "pol")},
    ]


def _loaded_inputs(field, value):
    """The twin of :func:`_python_inputs`: the same decision's documents, read by the loaders.

    A party's own fields are read from a policy file, whose path an error's
    message leaves out; the policies of the others are read as documents.
    """
    if field.startswith("PartyConfig."):
        party = {
            "party": value if field == "PartyConfig.party" else "owner",
            "policies": value if field == "PartyConfig.policies" else _policy_docs(field, value),
        }
        if field == "PartyConfig.internal_expr":
            party["internal_expr"] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "owner.json"
            path.write_text(json.dumps(party), encoding="utf-8")
            try:
                config = _party_from_file(str(path), None)
            except InputFormatError as err:
                err.args = (err.args[0].removeprefix(f"{path}: "),)
                raise
    else:
        config = PartyConfig("owner", tuple(map(policy_from_dict, _policy_docs(field, value))))
    request = {
        "subject": value if field == "Request.subject" else "clerk",
        "query_attrs": value if field == "Request.query_attrs" else {"n": 5},
    }
    request["category"] = value if field == "Request.category" else "records"
    return [config], request_from_dict(request)[0]


def _decision(parties, request):
    try:
        return "decided", outcome_to_dict(decide(RECORD, request, parties, "F3", PG))
    except StageError as err:
        return "stage", err.stage, type(err.cause), str(err.cause)


# -- the fields and the values drawn for them ----------------------------------------------------

POLICIES = list(zip(_python_inputs(None, None)[0][0].policies, _policy_docs(None, None)))

#: Each field's values of the right kind, given in Python and in its document form, which the
#: containers drawn for it may hold; "names" holds the purposes, roles and categories.
GOODS = {
    "names": [("a", "a"), ("b", "b"), ("clerk", "clerk"), ("records", "records"), ("zz", "zz")],
    "PatternVertex.vtype": [(VertexType.ARTIFACT, "Artifact"), ("ARTIFACT", "ARTIFACT"), ("attribute", "attribute")],
    "PatternVertex.constraints": [(AttrConstraint("n", ">", 5), ["n", ">", 5]), (AttrConstraint("n", "=", 7), ["n", "=", 7])],
    "PatternEdge.label": [(None, "*"), (EdgeLabel.WAS_GENERATED_BY, "wasGeneratedBy"), ("used", "used")],
    "AttrConstraint.pred": [(Predicate.GEQ, ">="), ("<", "<"), ("~", "~")],
    "ProvenancePartition.vertices": [(A, A_DOC), (P, P_DOC)],
    "ProvenancePartition.edges": [(E, E_DOC), (PatternEdge("p", "a"), ["p", "a", "*"])],
    "PathPattern.steps": [(STEPS[0], "x|report"), (STEPS[1], "wasGeneratedBy|Insert"), (None, "\\v*")],
    "TreeBranch.op": [(TreeOp.AND, "AND"), ("AND", "AND")],
    "TreeBranch.children": [(ALICE, "alice"), (NULL, "null"), (TreeBranch("AND", (ALICE, NULL)), {"AND": ["alice", "null"]})],
    "PartyConfig.policies": POLICIES,
    "PartyConfig.internal_expr": [("f_oplus(vx, pe)", "f_oplus(vx, pe)")],
    "TargetCondition.text": [("/agent", "/agent"), ("/process[x = 5]", "/process[x = 5]")],
}
GOODS["VertexCondition.vtype"] = GOODS["AttrCondition.vtype"] = GOODS["QueryCondition.vtype"] = GOODS["PatternVertex.vtype"]
GOODS["AttrCondition.pred"] = GOODS["QueryCondition.pred"] = GOODS["AttrConstraint.pred"]
GOODS["AttrConstraint.operand"] = GOODS["AttrCondition.operand"] = [
    (7, 7), ("x", "x"), (datetime(2020, 1, 1), {"timestamp": "2020-01-01"}),
]
GOODS["Request.query_attrs"] = [
    ({"n": 7}, {"n": 7}), ({"n": datetime(2020, 1, 1)}, {"n": {"timestamp": "2020-01-01"}}), ({7: 1}, {"7": 1}),
]
for _field in ("Policy.ap", "Policy.pp", "Policy.subjects", "Policy.categories"):
    GOODS[_field] = GOODS["names"]

FIELDS = [
    "Policy.id", "Policy.ptype", "Policy.ap", "Policy.pp", "Policy.subjects", "Policy.categories",
    "TreeBranch.op", "TreeBranch.children",
    "ProvenancePartition.vertices", "ProvenancePartition.edges",
    "PatternVertex.ref", "PatternVertex.vtype", "PatternVertex.name", "PatternVertex.constraints",
    "PatternEdge.src", "PatternEdge.dst", "PatternEdge.label",
    "AttrConstraint.item", "AttrConstraint.pred", "AttrConstraint.operand",
    "VertexCondition.vtype", "VertexCondition.name",
    "AttrCondition.vtype", "AttrCondition.name", "AttrCondition.item", "AttrCondition.pred", "AttrCondition.operand",
    "QueryCondition.vtype", "QueryCondition.name", "QueryCondition.query_attr", "QueryCondition.pred",
    "TargetCondition.text", "PathPattern.steps", "PathStep.label", "PathStep.name",
    "Request.subject", "Request.category", "Request.query_attrs",
    "PartyConfig.party", "PartyConfig.policies", "PartyConfig.internal_expr",
]
#: Fields whose document null is a default, not the null the constructor reads.
NULL_DEFAULTS = {"Policy.id", "Policy.ptype", "Request.query_attrs"}
#: Fields whose document spells the value in a text of its own, so a refusal's words may differ.
SPELLED = {"PathPattern.steps", "PathStep.label", "PathStep.name", "PatternEdge.label"}

_SCALARS = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(), st.integers(-2, 6), st.floats(allow_nan=True, allow_infinity=True)
)


def _hashable(pairs):
    kept = {}
    for value, form in pairs:
        try:
            kept.setdefault(value, form)
        except TypeError:  # an unhashable value is in no set
            pass
    return kept


def _values(field):
    """Values of every kind for `field`, each as (a maker of the Python value, its document form)."""
    goods = GOODS.get(field, [])
    element = st.sampled_from(goods) | _SCALARS.map(lambda v: (v, v)) if goods else _SCALARS.map(lambda v: (v, v))
    pairs = st.lists(element, max_size=3)
    kinds = [
        pairs.map(lambda ps: (lambda: [v for v, _ in ps], [f for _, f in ps])),
        pairs.map(lambda ps: (lambda: tuple(v for v, _ in ps), [f for _, f in ps])),
        pairs.map(_hashable).map(lambda kept: (lambda: set(kept), list(kept.values()))),
        pairs.map(lambda ps: (lambda: (v for v, _ in ps), [f for _, f in ps])),
        st.binary(max_size=3).map(lambda b: (lambda: b, NO_FORM)),
        st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2).map(lambda d: (lambda: dict(d), d)),
        _SCALARS.map(lambda v: (lambda: v, v)),
    ]
    if goods:
        kinds.append(st.sampled_from(goods).map(lambda g: (lambda: g[0], g[1])))
    return st.one_of(kinds)


def _form(field, made, form):
    """The document form to write: a null label is the document's "*", and a Python "*" is no label a document spells."""
    if field == "PatternEdge.label" and made is None:
        return "*"
    if field == "PatternEdge.label" and made == "*":
        return NO_FORM
    if field == "PathPattern.steps" and isinstance(form, list):
        return ["\\v*" if step is None else step for step in form]  # a wildcard step, spelled
    return form


def _own_form(field, made):
    """Whether the value is its own document form, read by the loader as the constructor reads it."""
    if field in SPELLED or (made is None and field in NULL_DEFAULTS):
        return False
    if field == "TreeBranch.op":
        return isinstance(made, str)  # an operator is a document key
    if field.startswith("PartyConfig.") and isinstance(made, float) and not math.isfinite(made):
        return False  # written to a policy file, and JSON holds no NaN or infinity
    return made is None or type(made) in (str, int, float, bool, dict)


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_field_of_any_kind_is_read_in_python_as_in_its_document(field, data):
    make, form = data.draw(_values(field), label=field)
    try:
        built = _python_inputs(field, make())
    except REFUSALS as refused:
        if _own_form(field, made := make()) and form is not NO_FORM:
            with pytest.raises(type(refused)) as twin:
                _loaded_inputs(field, _form(field, made, form))
            assert str(twin.value) == str(refused)
        return
    got = _decision(*built)
    form = _form(field, make(), form)
    assert form is not NO_FORM, "a value no document holds was read"
    assert got == _decision(*_loaded_inputs(field, form))


# -- the other doors: sides of a purpose pair and graph vertices ---------------------------------

@pytest.mark.parametrize("make", [PartyResult, HierarchicalPurposeSet])
@pytest.mark.parametrize("side", ["ap", "pp"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_side_of_any_kind_is_read_as_a_party_result_document_reads_it(make, side, data):
    values, form = data.draw(_values("names"))
    args = ("m",) if make is PartyResult else ()
    try:
        built = make(*args, **{side: values()})
    except InputFormatError as refused:
        if _own_form(side, values()):
            with pytest.raises(InputFormatError) as twin:
                party_result_from_dict({"party": "m", side: form})
            assert str(twin.value) == str(refused)
        return
    assert form is not NO_FORM, "a value no document holds was read"
    assert getattr(built, side) == getattr(party_result_from_dict({"party": "m", side: form}), side)


@pytest.mark.parametrize("field", ["type", "name"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_vertex_field_of_any_kind_is_added_as_a_graph_document_reads_it(field, data):
    values, form = data.draw(_values("PatternVertex.vtype" if field == "type" else "PatternVertex.name"))
    fields = {"type": "Artifact", "name": "report", field: values()}
    g = ProvenanceGraph()
    doc = {"vertices": [{"id": "r", "attrs": {"n": 7}, **fields, field: form}]}
    try:
        g.add_vertex(fields["type"], fields["name"], {"n": 7}, vid="r")
    except InputFormatError as refused:
        if _own_form(field, values()):
            with pytest.raises(InputFormatError) as twin:
                graph_from_dict(doc)
            assert str(twin.value) == str(refused)
        return
    assert form is not NO_FORM, "a value no document holds was read"
    assert graph_to_dict(g) == graph_to_dict(graph_from_dict(doc))


@pytest.mark.parametrize("name", ["", 5, None, ["m"]])
def test_a_party_result_reads_its_party_name_as_a_party_result_document_does(name):
    with pytest.raises(InputFormatError) as refused:
        PartyResult(name)
    with pytest.raises(InputFormatError) as twin:
        party_result_from_dict({"party": name})
    assert str(refused.value) == str(twin.value) == "party name must be a non-empty string"


def test_query_attrs_that_are_not_a_mapping_are_refused_in_the_loaders_words():
    with pytest.raises(InputFormatError) as refused:
        Request("s", None, [5])
    with pytest.raises(InputFormatError) as twin:
        request_from_dict({"subject": "s", "query_attrs": [5]})
    assert str(refused.value) == str(twin.value) == '"query_attrs" must be an object'
    attrs = {"n": 5}
    request = Request("s", None, attrs)
    assert request.query_attrs == attrs and request.query_attrs is not attrs
