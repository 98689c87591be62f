"""Metamorphic relations: a decision does not follow how its graph document is spelled.

No oracle reaches the benchmark workloads' graphs of up to 3,200 vertices,
so the program is checked against itself there. Two relations hold between
a provenance graph document and a rewritten copy of it:

* renaming the vertex ids bijectively leaves `outcome_to_dict` unchanged;
* shuffling the vertex and edge lists leaves it unchanged, or one side
  raises `SearchLimitError`: near `MAX_SEARCH_STEPS` the listing order can
  decide which input gives up, but never a value.

Each is a bounded property over the seeded cases of `randcases` and a check
over every seed-0 record of the three workloads. Neither reads a clock.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from provpurpose import (
    DataRecord,
    PartyConfig,
    PurposeGraph,
    Request,
    SearchLimitError,
    StageError,
    decide,
    graph_from_dict,
    graph_to_dict,
    outcome_to_dict,
)
from randcases import skeleton_family_case

DECIDEBENCH = Path(__file__).resolve().parent.parent / "decidebench"


def _renamed(doc, rng):
    """`doc` with its vertex ids mapped one to one onto shuffled fresh ids."""
    ids = [v["id"] for v in doc["vertices"]]
    fresh = [f"n{i}" for i in range(len(ids))]
    rng.shuffle(fresh)
    to = dict(zip(ids, fresh))
    return {
        "vertices": [{**v, "id": to[v["id"]]} for v in doc["vertices"]],
        "edges": [{**e, "src": to[e["src"]], "dst": to[e["dst"]]} for e in doc["edges"]],
    }


def _shuffled(doc, rng):
    vertices, edges = list(doc["vertices"]), list(doc["edges"])
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}


def _decided(graph_doc, record, request, parties, external, pg, role_order):
    """The rendered decision on the graph `graph_doc` spells, or the stage and error it raised."""
    try:
        outcome = decide(
            DataRecord(graph_from_dict(graph_doc), record.category, record.attached_purposes),
            request, parties, external, pg, role_order,
        )
    except StageError as exc:
        return exc.stage, type(exc.cause), str(exc.cause)
    return outcome_to_dict(outcome)


def _gave_up(decided):
    return type(decided) is tuple and decided[1] is SearchLimitError


def _check_relations(graph_doc, rng, *inputs):
    """Both relations on one record; `inputs` are the record and the rest of `decide`'s arguments."""
    base = _decided(graph_doc, *inputs)
    assert _decided(_renamed(graph_doc, rng), *inputs) == base
    shuffled = _decided(_shuffled(graph_doc, rng), *inputs)
    assert shuffled == base or _gave_up(shuffled) or _gave_up(base)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_renamed_and_shuffled_graph_documents_decide_alike(seed):
    rng = random.Random(seed)
    case = skeleton_family_case(rng)
    record = DataRecord(case.graph, case.category, case.attached)
    parties = [PartyConfig(name, policies) for name, policies, _ in case.parties]
    pg = PurposeGraph(case.purposes, case.edges, hierarchy_line=case.line)
    _check_relations(graph_to_dict(case.graph), rng, record, Request(case.subject), parties, case.external, pg, None)


@pytest.mark.parametrize("workload", ["rows_f3", "deep_lineage", "party_algebra"])
def test_every_seed_0_workload_record_decides_alike_renamed_and_shuffled(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(DECIDEBENCH))
    import workloads

    docs = workloads.WORKLOADS[workload](0)
    loaded = workloads.load(docs)
    rng = random.Random(workload)
    for doc, record, request in zip(docs["records"], loaded.records, loaded.requests):
        _check_relations(
            doc["graph"], rng, record, request, loaded.parties, loaded.external, loaded.pg, loaded.role_order
        )
