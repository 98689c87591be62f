"""Synthetic workload generation for benchmarking.

Everything here is deterministic under the configured seed: one
`random.Random` drives the purpose pool, the relation rows, the per-row
provenance graphs, and the generated policies. Rows follow a fixed relational
shape of 3 uniform integer columns and 6 fixed-length string columns.

Generated policies cover all four types in an even mix: fractional quotas
are settled by largest remainder so the counts always sum to the requested
total. Type 4 policies always carry subjects or categories, and their
partitions carry extra attribute constraints, so generating one does strictly
more work than generating a Type 1 policy.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import ConfigurationError
from .matching import (
    AttrConstraint,
    PatternEdge,
    PatternVertex,
    Predicate,
    ProvenancePartition,
    VertexCondition,
)
from .policy import AccessTree, Policy, TreeBranch, TreeLeaf, TreeOp
from .provenance import EdgeLabel, ProvenanceGraph, VertexType
from .purposes import PurposeGraph

NUMERIC_COLUMNS: tuple[str, ...] = ("unique1", "unique2", "ten")
STRING_COLUMNS: tuple[str, ...] = (
    "stringu1",
    "stringu2",
    "string4",
    "stringa",
    "stringb",
    "stringc",
)
STRING_LENGTH = 12

_SUBJECT_POOL = ("analyst", "clerk", "auditor", "researcher", "operator")
_CATEGORY_POOL = ("records", "orders", "contacts", "invoices", "readings")
#: The share of each policy type, 1 to 4, in a corpus and in the timing harness.
_TYPE_MIX = (0.25, 0.25, 0.25, 0.25)


@dataclass(frozen=True)
class BenchConfig:
    seed: int = 42
    n_purposes: int = 200
    n_rows: int = 100
    n_policies: int = 400
    repetitions: int = 10

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be at least 1")
        if self.n_purposes < 2 or self.n_rows < 1 or self.n_policies < 1:
            raise ConfigurationError("dataset sizes must be positive")


@dataclass(frozen=True)
class SyntheticDataset:
    purpose_graph: PurposeGraph
    rows: tuple[Mapping[str, Any], ...]
    graphs: tuple[ProvenanceGraph, ...]
    policies: tuple[Policy, ...]


def partition_by_mix(total: int, mix: Sequence[float]) -> list[int]:
    """Split `total` into integer counts by largest remainder; sums exactly."""
    quotas = [total * m for m in mix]
    counts = [int(q) for q in quotas]
    leftover = total - sum(counts)
    by_remainder = sorted(range(len(mix)), key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return counts


def random_purpose_graph(rng: random.Random, n_purposes: int) -> PurposeGraph:
    """A layered random DAG over `n_purposes` purposes.

    Every non-root draws one or two parents from the layer directly above,
    so a purpose's rank equals its layer index. The hierarchy line sits at
    the middle rank.
    """
    names = [f"p{i:03d}" for i in range(n_purposes)]
    layers: list[list[str]] = [[names[0]]]
    edges: list[tuple[str, str]] = []
    idx = 1
    while idx < n_purposes:
        width = min(n_purposes - idx, rng.randint(2, 8))
        layer = names[idx : idx + width]
        idx += width
        for child in layer:
            k = min(len(layers[-1]), rng.randint(1, 2))
            for parent in rng.sample(layers[-1], k):
                edges.append((parent, child))
        layers.append(layer)
    return PurposeGraph(names, edges, hierarchy_line=(len(layers) - 1) // 2)


def random_row(rng: random.Random) -> dict[str, Any]:
    row: dict[str, Any] = {c: rng.randrange(0, 1_000_000) for c in NUMERIC_COLUMNS}
    for c in STRING_COLUMNS:
        row[c] = "".join(rng.choice(string.ascii_lowercase) for _ in range(STRING_LENGTH))
    return row


def row_provenance(row: Mapping[str, Any], index: int, rng: random.Random) -> ProvenanceGraph:
    """A small insert-shaped provenance graph holding the row as attributes."""
    g = ProvenanceGraph()
    agent = g.add_vertex(VertexType.AGENT, f"user_{rng.randrange(10)}")
    proc = g.add_vertex(VertexType.PROCESS, "Insert")
    art = g.add_vertex(VertexType.ARTIFACT, f"row_{index}", attrs=dict(row))
    g.add_edge(art, proc, EdgeLabel.WAS_GENERATED_BY)
    g.add_edge(proc, agent, EdgeLabel.WAS_CONTROLLED_BY)
    return g


def _sample_purposes(rng: random.Random, pool: Sequence[str], low: int, high: int) -> frozenset[str]:
    k = rng.randint(low, min(high, len(pool)))
    return frozenset(rng.sample(pool, k)) if k else frozenset()


def _random_partition(rng: random.Random, with_constraints: bool) -> ProvenancePartition:
    constraints: tuple[AttrConstraint, ...] = ()
    if with_constraints:
        picked = rng.sample(NUMERIC_COLUMNS, rng.randint(1, 3))
        constraints = tuple(
            AttrConstraint(col, Predicate.LEQ, rng.randrange(0, 1_000_000)) for col in picked
        )
    vertices = (
        PatternVertex("t0", VertexType.ARTIFACT, name=None, constraints=constraints),
        PatternVertex("t1", VertexType.PROCESS, name="Insert"),
    )
    edges = (PatternEdge("t0", "t1", EdgeLabel.WAS_GENERATED_BY),)
    return ProvenancePartition(vertices, edges)


def generate_policy(
    rng: random.Random, ptype: int, pool: Sequence[str], policy_id: str
) -> Policy:
    """One random policy of the given type, purposes drawn from `pool`."""
    partition = _random_partition(rng, with_constraints=ptype == 4)
    tree: AccessTree = TreeLeaf(partition)
    ap: frozenset[str] = frozenset()
    pp: frozenset[str] = frozenset()
    subjects = None
    categories = None
    if ptype == 1:
        ap = _sample_purposes(rng, pool, 1, 5)
    elif ptype == 2:
        pp = _sample_purposes(rng, pool, 1, 3)
    elif ptype == 3:
        ap = _sample_purposes(rng, pool, 1, 5)
        pp = _sample_purposes(rng, pool, 0, 3)
    else:
        ap = _sample_purposes(rng, pool, 1, 5)
        pp = _sample_purposes(rng, pool, 0, 3)
        guard_shape = rng.randrange(3)
        if guard_shape in (0, 2):
            subjects = frozenset(rng.sample(_SUBJECT_POOL, rng.randint(1, 2)))
        if guard_shape in (1, 2):
            categories = frozenset(rng.sample(_CATEGORY_POOL, rng.randint(1, 2)))
        tree = TreeBranch(
            TreeOp.AND,
            (tree, TreeLeaf(VertexCondition(VertexType.PROCESS, "Insert"))),
        )
    return Policy(
        id=policy_id,
        ptype=ptype,
        tree=tree,
        ap=ap,
        pp=pp,
        subjects=subjects,
        categories=categories,
    )


def gen_synthetic(config: BenchConfig) -> SyntheticDataset:
    """The full deterministic workload: purposes, rows, graphs, policies."""
    rng = random.Random(config.seed)
    pg = random_purpose_graph(rng, config.n_purposes)
    pool = sorted(pg.purposes)
    rows = tuple(random_row(rng) for _ in range(config.n_rows))
    graphs = tuple(row_provenance(row, i, rng) for i, row in enumerate(rows))
    counts = partition_by_mix(config.n_policies, _TYPE_MIX)
    policies: list[Policy] = []
    for ptype, count in zip((1, 2, 3, 4), counts):
        for _ in range(count):
            policies.append(generate_policy(rng, ptype, pool, f"policy_{len(policies):04d}"))
    return SyntheticDataset(pg, rows, graphs, tuple(policies))
