"""Shared fixtures: file paths, the purpose-DAG fixture, small test graphs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from provpurpose import (
    EdgeLabel,
    ProvenanceGraph,
    PurposeGraph,
    VertexType,
    load_graph,
    load_purpose_graph,
)

FIXTURES = Path(__file__).parent / "fixtures"
CASE_STUDY = FIXTURES / "case_study"


@pytest.fixture(scope="session")
def hierarchy() -> PurposeGraph:
    """The 18-purpose DAG fixture with the hierarchy line at rank 2."""
    return load_purpose_graph(str(FIXTURES / "purpose_hierarchy.json"))


ALGEBRA_PURPOSES = ("root", "high1", "high2", "low1", "low2", "side1", "side2", "side3")
ALGEBRA_EDGES = (
    ("root", "high1"),
    ("high1", "high2"),
    ("high2", "low1"),
    ("low1", "low2"),
    ("root", "side1"),
    ("side1", "side2"),
    ("side2", "side3"),
)


@pytest.fixture(scope="session")
def algebra_dag() -> PurposeGraph:
    """Eight purposes; the four universe members sit at distinct ranks 1-4."""
    return PurposeGraph(list(ALGEBRA_PURPOSES), list(ALGEBRA_EDGES), hierarchy_line=2)


ALGEBRA_UNIVERSE = ("high1", "high2", "low1", "low2")


@pytest.fixture(scope="session")
def submission_graph() -> ProvenanceGraph:
    return load_graph(str(CASE_STUDY / "graph.json"))


@pytest.fixture()
def tiny_graph() -> ProvenanceGraph:
    """One agent, one process, one artifact with attributes."""
    g = ProvenanceGraph()
    agent = g.add_vertex(VertexType.AGENT, "alice", attrs={"role": "curator"})
    proc = g.add_vertex(VertexType.PROCESS, "ingest")
    art = g.add_vertex(VertexType.ARTIFACT, "report", attrs={"size": 4, "fmt": "pdf"})
    g.add_edge(art, proc, EdgeLabel.WAS_GENERATED_BY)
    g.add_edge(proc, agent, EdgeLabel.WAS_CONTROLLED_BY)
    return g


def load_case_study_json(name: str):
    return json.loads((CASE_STUDY / name).read_text(encoding="utf-8"))


def complete_dag_doc(n: int) -> dict:
    """n Artifacts with ``a_j wasDerivedFrom a_i`` for every j > i: valid and acyclic."""
    return {
        "vertices": [{"id": f"a{i}", "type": "Artifact", "name": f"a{i}"} for i in range(n)],
        "edges": [
            {"src": f"a{j}", "dst": f"a{i}", "label": "wasDerivedFrom"} for j in range(n) for i in range(j)
        ],
    }


def cycle_partition_doc(k: int) -> dict:
    """k unnamed, unconstrained Artifacts joined in a directed wasDerivedFrom cycle."""
    return {
        "vertices": [{"ref": f"p{i}", "type": "Artifact"} for i in range(k)],
        "edges": [[f"p{i}", f"p{(i + 1) % k}", "wasDerivedFrom"] for i in range(k)],
    }
