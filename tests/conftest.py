"""Shared fixtures: file paths, the purpose-DAG fixture, small test graphs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from provpurpose import (
    AttrConstraint,
    EdgeLabel,
    PatternEdge,
    PatternVertex,
    Predicate,
    ProvenanceGraph,
    ProvenancePartition,
    PurposeGraph,
    VertexType,
    load_graph,
    load_purpose_graph,
)
from provpurpose.matching import _Grader

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


def coarser_plan_case() -> tuple[ProvenanceGraph, ProvenancePartition, ProvenancePartition]:
    """A graph and two partitions of one coarser partition, `first` and `later`, whose plans differ.

    `later`'s own plan starts at its constrained ``C`` and tries each of the
    four processes that used it: 4 steps. The coarser's plan starts at
    ``A``, whose one generating process used no ``C``: 1 step. Both are
    TYPES: some artifact was generated by a process that used an artifact.
    """
    g = ProvenanceGraph()
    target = g.add_vertex(VertexType.ARTIFACT, "C", {"k": 1})
    for i in range(4):
        g.add_edge(g.add_vertex(VertexType.PROCESS, f"u{i}"), target, EdgeLabel.USED)
    made, maker = g.add_vertex(VertexType.ARTIFACT, "A"), g.add_vertex(VertexType.PROCESS, "q")
    g.add_edge(made, maker, EdgeLabel.WAS_GENERATED_BY)
    g.add_edge(maker, g.add_vertex(VertexType.ARTIFACT, "D"), EdgeLabel.USED)

    def constrained(at):
        return ProvenancePartition(
            tuple(
                PatternVertex(ref, vtype, name, (AttrConstraint("k", Predicate.EQ, 1),) if ref == at else ())
                for ref, vtype, name in (
                    ("a", VertexType.ARTIFACT, "A"), ("b", VertexType.PROCESS, None), ("c", VertexType.ARTIFACT, "C")
                )
            ),
            (PatternEdge("a", "b", EdgeLabel.WAS_GENERATED_BY), PatternEdge("b", "c", EdgeLabel.USED)),
        )

    return g, constrained("a"), constrained("c")


def party_groups(cfg) -> dict:
    """Each grouped leaf's identity in a party's leaf pass, mapped to the grader of its group."""
    return {id(p): step for step in cfg._steps if type(step) is _Grader for p in step.members}


def cycle_partition_doc(k: int) -> dict:
    """k unnamed, unconstrained Artifacts joined in a directed wasDerivedFrom cycle."""
    return {
        "vertices": [{"ref": f"p{i}", "type": "Artifact"} for i in range(k)],
        "edges": [[f"p{i}", f"p{(i + 1) % k}", "wasDerivedFrom"] for i in range(k)],
    }
