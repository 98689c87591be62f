"""Seeded random graphs and patterns for oracle comparisons."""

from __future__ import annotations

import random

from provpurpose import (
    ALLOWED_EDGES,
    AttrConstraint,
    EdgeLabel,
    PathPattern,
    PathStep,
    PatternEdge,
    PatternVertex,
    Predicate,
    ProvenanceGraph,
    ProvenancePartition,
    VertexType,
)

_MAIN_TYPES = (VertexType.AGENT, VertexType.ARTIFACT, VertexType.PROCESS)
_NAMES = ("a", "b", "c", "d")
_EDGE_BY_TYPES = {}
for _s, _d, _l in ALLOWED_EDGES:
    if _l is not EdgeLabel.HAS_ATTRIBUTES:
        _EDGE_BY_TYPES.setdefault((_s, _d), []).append(_l)


def random_provenance_graph(rng: random.Random, max_main: int = 5) -> ProvenanceGraph:
    g = ProvenanceGraph()
    n = rng.randint(1, max_main)
    ids = []
    for i in range(n):
        attrs = None
        if rng.random() < 0.4:
            attrs = {}
            if rng.random() < 0.8:
                attrs["k"] = rng.randint(0, 3)
            if rng.random() < 0.5:
                attrs["s"] = rng.choice(("xy", "yz"))
            if not attrs:
                attrs = None
        ids.append(g.add_vertex(rng.choice(_MAIN_TYPES), rng.choice(_NAMES), attrs))
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.45:
                src, dst = ids[j], ids[i]
                labels = _EDGE_BY_TYPES.get((g.tau(src), g.tau(dst)))
                if labels:
                    refined = rng.choice((None, None, "wasRefinedBy"))
                    g.add_edge(src, dst, rng.choice(labels), refined)
    return g


def _random_constraint(rng: random.Random) -> AttrConstraint:
    if rng.random() < 0.6:
        pred = rng.choice((Predicate.EQ, Predicate.LT, Predicate.GEQ, Predicate.NEQ))
        return AttrConstraint("k", pred, rng.randint(0, 3))
    pred = rng.choice((Predicate.EQ, Predicate.CONTAINS))
    return AttrConstraint("s", pred, rng.choice(("xy", "yz", "y")))


def random_partition(rng: random.Random, graph: ProvenanceGraph) -> ProvenancePartition:
    k = rng.randint(1, 4)
    main = [v for v in graph.main_vertices()]
    vertices = []
    for i in range(k):
        if main and rng.random() < 0.6:
            sample = rng.choice(main)
            vtype, name = sample.vtype, sample.name
        else:
            vtype, name = rng.choice(_MAIN_TYPES), rng.choice(_NAMES)
        constraints = (_random_constraint(rng),) if rng.random() < 0.35 else ()
        named = name if rng.random() < 0.8 else None
        vertices.append(PatternVertex(f"r{i}", vtype, named, constraints))
    edges = []
    graph_labels = [e.label for e in graph.edges] or [EdgeLabel.USED]
    for i in range(1, k):
        parent = rng.randint(0, i - 1)
        label = None if rng.random() < 0.5 else rng.choice(graph_labels)
        if rng.random() < 0.5:
            edges.append(PatternEdge(f"r{parent}", f"r{i}", label))
        else:
            edges.append(PatternEdge(f"r{i}", f"r{parent}", label))
    return ProvenancePartition(tuple(vertices), tuple(edges))


# -- larger lineage DAGs for the differential matcher tests ---------------------------

_DAG_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
_PLAIN_LABELS = tuple(label for label in EdgeLabel if label is not EdgeLabel.HAS_ATTRIBUTES)
_PATH_TOKENS = tuple(label.value for label in _PLAIN_LABELS) + ("wasRefinedBy",)


def random_lineage_dag(rng: random.Random, n_main: int) -> ProvenanceGraph:
    """A sparse DAG: each vertex links to up to three earlier ones.

    Most edges carry a legal label for their end types. Some carry any label,
    some are doubled (same or other label), and some are refined, so pairs of
    vertices with parallel edges of different labels occur.
    """
    g = ProvenanceGraph()
    ids: list[str] = []
    for _ in range(n_main):
        attrs = None
        if rng.random() < 0.4:
            attrs = {"k": rng.randint(0, 3)}
            if rng.random() < 0.5:
                attrs["s"] = rng.choice(("xy", "yz"))
        ids.append(g.add_vertex(rng.choice(_MAIN_TYPES), rng.choice(_DAG_NAMES), attrs))
    for j in range(1, n_main):
        for i in rng.sample(range(j), min(j, rng.randint(0, 3))):
            src, dst = ids[j], ids[i]
            legal = _EDGE_BY_TYPES.get((g.tau(src), g.tau(dst)))
            for _ in range(2 if rng.random() < 0.15 else 1):
                if legal and rng.random() < 0.8:
                    label = rng.choice(legal)
                else:
                    label = rng.choice(_PLAIN_LABELS)
                g.add_edge(src, dst, label, rng.choice((None, None, None, "wasRefinedBy")))
    return g


def _sample_pattern_vertex(rng: random.Random, ref: str, vertex) -> PatternVertex:
    """A pattern vertex shaped after a graph vertex, sometimes loosened or spoilt."""
    vtype = vertex.vtype if rng.random() < 0.95 else rng.choice(_MAIN_TYPES)
    roll = rng.random()
    name = vertex.name if roll < 0.6 else None if roll < 0.85 else rng.choice(_DAG_NAMES)
    constraints: tuple[AttrConstraint, ...] = ()
    if rng.random() < 0.3:
        constraints = tuple(_random_constraint(rng) for _ in range(rng.randint(1, 2)))
    return PatternVertex(ref, vtype, name, constraints)


def random_dag_partition(rng: random.Random, graph: ProvenanceGraph) -> ProvenancePartition:
    """A 1-5 vertex pattern, most often grown along real edges of the graph.

    Edges are kept, reversed or relabelled, half of them are wildcards, and
    extra edges, parallel ones and the odd self-loop included, join random
    pairs.
    """
    k = rng.randint(1, 5)
    main = [v.id for v in graph.main_vertices()]
    walk = [rng.choice(main)]
    tree: list[tuple[int, int, EdgeLabel | None]] = []  # (src index, dst index, graph label)
    while len(walk) < k:
        at = rng.randrange(len(walk))
        vid = walk[at]
        out = [(e.dst, e.label, True) for e in graph.out_edges(vid) if e.label is not EdgeLabel.HAS_ATTRIBUTES]
        inc = [(e.src, e.label, False) for e in graph.in_edges(vid)]
        options = [o for o in out + inc if o[0] not in walk]
        if options and rng.random() < 0.95:
            other, label, forward = rng.choice(options)
        else:
            other, label, forward = rng.choice(main), rng.choice(_PLAIN_LABELS), rng.random() < 0.5
            if other in walk:
                continue
        walk.append(other)
        new = len(walk) - 1
        tree.append((at, new, label) if forward else (new, at, label))
    vertices = [_sample_pattern_vertex(rng, f"r{i}", graph.vertex(vid)) for i, vid in enumerate(walk)]
    edges = []
    for src, dst, label in tree:
        if rng.random() < 0.05:
            src, dst = dst, src
        roll = rng.random()
        label = None if roll < 0.5 else label if roll < 0.92 else rng.choice(_PLAIN_LABELS)
        edges.append(PatternEdge(f"r{src}", f"r{dst}", label))
    among = [e for vid in walk for e in graph.out_edges(vid) if e.dst in walk]
    for _ in range(rng.choice((0, 0, 1, 2))):
        if among and rng.random() < 0.7:  # an edge the walk skipped
            e = rng.choice(among)
            src, dst = walk.index(e.src), walk.index(e.dst)
            label = None if rng.random() < 0.4 else e.label
        elif k > 1:
            src, dst = rng.sample(range(k), 2)
            label = None if rng.random() < 0.4 else rng.choice(_PLAIN_LABELS)
        else:
            continue
        edges.append(PatternEdge(f"r{src}", f"r{dst}", label))
    if edges and rng.random() < 0.2:
        twin = rng.choice(edges)  # a parallel constraint on the same pair
        edges.append(PatternEdge(twin.src, twin.dst, rng.choice((None,) + _PLAIN_LABELS)))
    if rng.random() < 0.05:
        loop = f"r{rng.randrange(k)}"
        edges.append(PatternEdge(loop, loop, rng.choice((None,) + _PLAIN_LABELS)))
    return ProvenancePartition(tuple(vertices), tuple(edges))


def random_path_pattern(rng: random.Random) -> PathPattern:
    """1-5 steps whose inner steps may be wildcards; half match by name only."""
    k = rng.randint(1, 5)
    steps: list[PathStep | None] = []
    for i in range(k):
        if 0 < i < k - 1 and rng.random() < 0.4:
            steps.append(None)
        else:
            token = rng.choice(_PATH_TOKENS) if rng.random() < 0.5 else "nolabel"
            steps.append(PathStep(token, rng.choice(_DAG_NAMES + ("nope",))))
    return PathPattern(tuple(steps))
