"""Seeded random graphs, patterns and decision cases for oracle comparisons."""

from __future__ import annotations

import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from typing import NamedTuple, Sequence

from provpurpose import (
    ALLOWED_EDGES,
    AttrConstraint,
    BasicOp,
    DataRecord,
    EdgeLabel,
    InternalFunction,
    NullCondition,
    PathPattern,
    PathStep,
    PatternEdge,
    PatternVertex,
    Policy,
    Predicate,
    ProvenanceGraph,
    ProvenancePartition,
    Request,
    TreeBranch,
    TreeLeaf,
    TreeOp,
    VertexCondition,
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
    """A pattern of 1-5 vertices, and no more than the graph's main vertices, most often grown along real edges.

    Edges are kept, reversed or relabelled, half of them are wildcards, and
    extra edges, parallel ones and the odd self-loop included, join random
    pairs.
    """
    main = [v.id for v in graph.main_vertices()]
    k = rng.randint(1, min(5, len(main)))  # a walk never holds more distinct vertices than the graph
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


def same_skeleton(rng: random.Random, partition: ProvenancePartition) -> ProvenancePartition:
    """`partition`'s vertex types and edges, with constraints drawn anew for each vertex.

    Most variants keep every name and some drop them all, so variants of one
    pattern often share its coarser partitions; the rest redraw names per vertex.
    """
    roll = rng.random()
    vertices = []
    for v in partition.vertices:
        name = v.name if roll < 0.6 else None if roll < 0.85 else rng.choice((v.name, None) + _DAG_NAMES)
        constraints = tuple(_random_constraint(rng) for _ in range(rng.choice((0, 1, 1, 2))))
        vertices.append(PatternVertex(v.ref, v.vtype, name, constraints))
    return ProvenancePartition(tuple(vertices), partition.edges)


def skeleton_family(rng: random.Random, graph: ProvenanceGraph) -> list[ProvenancePartition]:
    """2-8 partitions of one skeleton of 1-4 vertices, most of them sharing a coarser partition.

    The skeleton is most often grown along edges of the graph, which are kept
    or made wildcards; now and then a vertex takes another's type, so two
    pattern vertices of one type need injectivity, and some skeletons carry a
    self-loop. Most partitions keep the skeleton's names and draw
    constraints anew for one or more of its vertices; the rest draw names
    anew and have no constraints.
    """
    k = rng.randint(1, 4)
    main = [v.id for v in graph.main_vertices()]
    walk = [rng.choice(main)]
    tree: list[tuple[int, int, EdgeLabel]] = []  # (src index, dst index, graph label)
    while len(walk) < k:
        at = rng.randrange(len(walk))
        out = [(e.dst, e.label, True) for e in graph.out_edges(walk[at]) if e.label is not EdgeLabel.HAS_ATTRIBUTES]
        options = [o for o in out + [(e.src, e.label, False) for e in graph.in_edges(walk[at])] if o[0] not in walk]
        if not options:
            break
        other, label, forward = rng.choice(options)
        walk.append(other)
        tree.append((at, len(walk) - 1, label) if forward else (len(walk) - 1, at, label))
    k = len(walk)
    types = [graph.vertex(vid).vtype for vid in walk]
    names = [graph.vertex(vid).name if rng.random() < 0.8 else rng.choice(_NAMES + (None,)) for vid in walk]
    if k > 1 and rng.random() < 0.15:
        types[1] = types[0]
    edges = [PatternEdge(f"r{src}", f"r{dst}", None if rng.random() < 0.5 else label) for src, dst, label in tree]
    if rng.random() < 0.2:
        loop = f"r{rng.randrange(k)}"
        edges.append(PatternEdge(loop, loop, rng.choice((None,) + _PLAIN_LABELS)))
    def constraint(vid: str) -> AttrConstraint:
        held = sorted(graph.attributes_of(vid).items())
        if held and rng.random() < 0.5:  # one the walk's vertex holds, though another may stand for it
            item, value = rng.choice(held)
            return AttrConstraint(item, rng.choice((Predicate.EQ, Predicate.GEQ, Predicate.LEQ)), value)
        return _random_constraint(rng)

    family = []
    for _ in range(rng.randint(2, 8)):
        if rng.random() < 0.8:
            constrained = set(rng.sample(range(k), rng.randint(1, k)))
            counts = [rng.choice((1, 1, 2)) if i in constrained else 0 for i in range(k)]
            vertices = [
                PatternVertex(f"r{i}", types[i], names[i], tuple(constraint(walk[i]) for _ in range(counts[i])))
                for i in range(k)
            ]
        else:
            vertices = [PatternVertex(f"r{i}", types[i], rng.choice((names[i], names[i], None) + _NAMES)) for i in range(k)]
        family.append(ProvenancePartition(tuple(vertices), tuple(edges)))
    return family


#: Attribute values of every kind, with values of none: `True` is not 1, a
#: float has no kind, and the last two timestamps are one instant. The
#: operands are the values of a kind, the only ones a constraint takes.
GRADED_VALUES = (
    0, 1, 2,
    "", "a", "ab", "b",
    datetime(2020, 1, 1), datetime(2020, 1, 2),
    datetime(2020, 1, 1, tzinfo=timezone.utc), datetime(2020, 1, 2, tzinfo=timezone.utc),
    datetime(2020, 1, 2, 1, tzinfo=timezone(timedelta(hours=1))),
    True, 1.5,
)
GRADED_OPERANDS = GRADED_VALUES[:-2]


def graded_group(rng: random.Random) -> tuple[ProvenanceGraph, tuple[ProvenancePartition, ...]]:
    """A graph with several embeddings of one skeleton, and 2-12 constrained partitions of it.

    The skeleton is an artifact "x", then a process "run" that generated it,
    then a second artifact "x" of that process, so a skeleton of two
    artifacts needs injectivity. The graph holds 1-4 such artifacts and 1-2
    such processes, whose payloads draw items "k" and "s" from
    `GRADED_VALUES`. Each partition draws 0-3 constraints per vertex, on
    either item, under any predicate, with any of `GRADED_OPERANDS`, at least one in
    all; a third of them repeat an item on one vertex. The partitions share
    one coarser partition, so they form one group.
    """
    g = ProvenanceGraph()

    def add(vtype: VertexType, name: str) -> str:
        """A vertex whose payload draws from `GRADED_VALUES`, written in place, as `add_vertex` refuses `True` and 1.5."""
        payload = {item: rng.choice(GRADED_VALUES) for item in ("k", "s") if rng.random() < 0.7}
        vid = g.add_vertex(vtype, name, dict.fromkeys(payload, 0))
        if payload:
            g.vertices[f"{vid}:att"].attrs.update(payload)
        return vid

    runs = [add(VertexType.PROCESS, "run") for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(1, 4)):
        art = add(VertexType.ARTIFACT, "x")
        for run in runs:
            if rng.random() < 0.8:
                g.add_edge(art, run, EdgeLabel.WAS_GENERATED_BY)
    skeleton = (("a", VertexType.ARTIFACT), ("p", VertexType.PROCESS), ("b", VertexType.ARTIFACT))[: rng.randint(1, 3)]
    edges = tuple(PatternEdge(ref, "p", EdgeLabel.WAS_GENERATED_BY) for ref, _ in skeleton if ref != "p")
    if len(skeleton) == 1:
        edges = ()

    def constraint(item: str) -> AttrConstraint:
        return AttrConstraint(item, rng.choice(list(Predicate)), rng.choice(GRADED_OPERANDS))

    group = []
    for _ in range(rng.randint(2, 12)):
        drawn = [[constraint(rng.choice("ks")) for _ in range(rng.choice((0, 0, 1, 1, 2, 3)))] for _ in skeleton]
        if not any(drawn):
            drawn[rng.randrange(len(skeleton))].append(constraint("k"))
        if rng.random() < 0.3:
            at = next(cs for cs in drawn if cs)
            at.append(constraint(at[0].item))
        vertices = tuple(PatternVertex(ref, vtype, "x" if ref != "p" else "run", tuple(cs)) for (ref, vtype), cs in zip(skeleton, drawn))
        group.append(ProvenancePartition(vertices, edges))
    return g, tuple(group)


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


# -- whole decision cases for the end-to-end oracle -----------------------------------

_ROLES = ("viewer", "editor", "admin", "owner")
_CATEGORIES = ("assignment", "assignments", "grades", "grade")
_INTERNAL_FUNCTIONS = tuple(fn.value for fn in InternalFunction) + ("f_nary",)
_EXTERNAL_FUNCTIONS = tuple(f"F{i}" for i in range(1, 9))
_RANKED_EXTERNAL_FUNCTIONS = ("F5", "F6", "F7", "F8")
_INFIX = tuple(op.value for op in BasicOp)


class DecisionCase(NamedTuple):
    """The inputs of one decision; expressions are trees, as `oracles.oracle_decide` reads them."""

    graph: ProvenanceGraph
    category: str | None
    subject: str
    role_order: dict[str, frozenset[str]] | None
    parties: list[tuple[str, tuple[Policy, ...], tuple | None]]
    external: str | tuple
    purposes: list[str]
    edges: list[tuple[str, str]]
    line: int
    attached: frozenset[str] | None


def _purpose_layers(rng: random.Random) -> tuple[list[list[str]], list[tuple[str, str]], list[str]]:
    """2-4 rank layers of 1-3 purposes; each purpose below the top one has one or two parents just above."""
    layers = [[f"p{k}_{i}" for i in range(rng.randint(1, 3))] for k in range(rng.randint(2, 4))]
    edges = [
        (parent, child)
        for upper, lower in zip(layers, layers[1:])
        for child in lower
        for parent in rng.sample(upper, rng.randint(1, min(2, len(upper))))
    ]
    return layers, edges, [p for layer in layers for p in layer]


def _subset(rng: random.Random, pool: Sequence[str], p: float = 0.45) -> frozenset[str]:
    return frozenset(x for x in pool if rng.random() < p)


def _random_tree(rng: random.Random, leaves: list, depth: int = 0):
    """A tree of null or vertex leaves; about half reuse a condition object from `leaves`.

    New conditions join `leaves`, so one case's policies and parties share
    leaf objects as interned documents do.
    """
    if depth == 2 or rng.random() < 0.6:
        if leaves and rng.random() < 0.5:
            return TreeLeaf(rng.choice(leaves))
        if rng.random() < 0.6:
            cond = NullCondition()
        else:
            cond = VertexCondition(rng.choice(_MAIN_TYPES), rng.choice(_NAMES[:3]))
        leaves.append(cond)
        return TreeLeaf(cond)
    children = tuple(_random_tree(rng, leaves, depth + 1) for _ in range(rng.randint(1, 3)))
    return TreeBranch(rng.choice(list(TreeOp)), children)


def shared_leaves(case: "DecisionCase") -> tuple[bool, bool]:
    """Whether some leaf condition object occurs in two policies, and in two parties."""
    owners: dict[int, set[tuple[str, str]]] = {}
    for party, policies, _ in case.parties:
        for pol in policies:
            stack = [pol.tree]
            while stack:
                node = stack.pop()
                if isinstance(node, TreeLeaf):
                    owners.setdefault(id(node.condition), set()).add((party, pol.id))
                else:
                    stack.extend(node.children)
    return (
        any(len(o) > 1 for o in owners.values()),
        any(len({party for party, _ in o}) > 1 for o in owners.values()),
    )


def _random_policy(rng: random.Random, pid: str, pool: Sequence[str], leaves: list, tree=None) -> Policy:
    """A policy of a random type over `tree`, or else over a tree of null or vertex leaves (see `_random_tree`)."""
    ptype = rng.randint(1, 4)
    ap = _subset(rng, pool) if ptype != 2 else frozenset()
    pp = _subset(rng, pool) if ptype != 1 else frozenset()
    subjects = categories = None
    if ptype == 4:
        roll = rng.random()
        if roll < 0.7:
            subjects = frozenset(rng.sample(_ROLES, rng.randint(1, 2)))
        if roll > 0.4:
            categories = frozenset(rng.sample(_CATEGORIES, rng.randint(1, 2)))
    if tree is None:
        tree = _random_tree(rng, leaves)
    return Policy(pid, ptype, tree, ap=ap, pp=pp, subjects=subjects, categories=categories)


def _random_expr_tree(rng: random.Random, names: Sequence[str], functions: Sequence[str], leaves: int):
    """A tree of `leaves` name leaves joined by `functions` and the eight infix operators.

    Trees are ("ref", name), ("call", function, args) or ("op", operator, left, right).
    """
    if leaves == 1:
        return "ref", rng.choice(names)
    how = rng.choice(tuple(functions) + _INFIX)
    if how == "f_nary" and leaves >= 3:
        cut1, cut2 = sorted(rng.sample(range(1, leaves), 2))
        sizes = (cut1, cut2 - cut1, leaves - cut2)
        return "call", how, tuple(_random_expr_tree(rng, names, functions, n) for n in sizes)
    cut = rng.randint(1, leaves - 1)
    left = _random_expr_tree(rng, names, functions, cut)
    right = _random_expr_tree(rng, names, functions, leaves - cut)
    return ("op", how, left, right) if how in _INFIX else ("call", how, (left, right))


def _random_main_vertices(rng: random.Random) -> ProvenanceGraph:
    """1-6 unconnected main vertices named from the first three names, which vertex leaves name."""
    graph = ProvenanceGraph()
    for _ in range(rng.randint(1, 6)):
        graph.add_vertex(rng.choice(_MAIN_TYPES), rng.choice(_NAMES[:3]))
    return graph


def random_decision_case(rng: random.Random) -> DecisionCase:
    """1-4 parties of 1-6 policies of every type over a layered purpose DAG.

    Policies carry guards and null or vertex leaves that may or may not hold,
    and share some leaf objects within and across parties; each party merges
    by the default fold or by an expression, and the parties merge by a bare
    F1-F8 name or by an expression. A party has one policy more often than
    any other number, so its prohibitions reach the cross-party merge
    unmerged.
    """
    layers, edges, purposes = _purpose_layers(rng)
    graph = _random_main_vertices(rng)
    parties = []
    leaves: list = []
    for i in range(rng.randint(1, 4)):
        ids = [f"q{j}" for j in range(rng.choice((1, 1, 2, 3, 4, 5, 6)))]
        policies = tuple(_random_policy(rng, pid, purposes, leaves) for pid in ids)
        expr = None
        if rng.random() < 0.7:
            expr = _random_expr_tree(rng, ids, _INTERNAL_FUNCTIONS, rng.randint(2, 6))
        parties.append((f"P{i}", policies, expr))
    names = [name for name, _, _ in parties]
    external: str | tuple = rng.choice(_EXTERNAL_FUNCTIONS)
    if rng.random() < 0.6:
        external = _random_expr_tree(rng, names, _EXTERNAL_FUNCTIONS, rng.randint(2, 5))
    role_order = None
    if rng.random() < 0.7:
        role_order = {r: frozenset(rng.sample(_ROLES, rng.randint(0, 1))) for r in rng.sample(_ROLES, 3)}
    return DecisionCase(
        graph=graph,
        category=rng.choice((None,) + _CATEGORIES),
        subject=rng.choice(_ROLES),
        role_order=role_order,
        parties=parties,
        external=external,
        purposes=purposes,
        edges=edges,
        line=rng.randint(0, len(layers)),
        attached=_subset(rng, purposes, 0.6) if rng.random() < 0.4 else None,
    )


def skeleton_family_case(
    rng: random.Random, drawn: tuple[ProvenanceGraph, Sequence[ProvenancePartition]] | None = None
) -> DecisionCase:
    """1-4 parties of 1-8 policies whose leaves are partitions of one `skeleton_family`.

    Each policy's tree is one of the family's partitions, or an AND or OR of
    two, so most parties hold several constrained partitions of one coarser
    partition, and parties share partition objects. Self-loops are dropped
    from the family, as the matcher never checks them and the oracle does.
    The parties fold by default and merge by a bare F1-F8 name. `drawn`, a
    graph and a family without self-loops, stands in for a random graph and
    its skeleton family.
    """
    layers, edges, purposes = _purpose_layers(rng)
    if drawn is None:
        graph = random_provenance_graph(rng, 6)
        family = [
            ProvenancePartition(p.vertices, tuple(e for e in p.edges if e.src != e.dst))
            for p in skeleton_family(rng, graph)
        ]
    else:
        graph, family = drawn
    parties = []
    for i in range(rng.randint(1, 4)):
        policies = []
        for j in range(rng.randint(1, 8)):
            tree = TreeLeaf(rng.choice(family))
            if rng.random() < 0.3:
                tree = TreeBranch(rng.choice(list(TreeOp)), (tree, TreeLeaf(rng.choice(family))))
            policies.append(_random_policy(rng, f"q{j}", purposes, [], tree))
        parties.append((f"P{i}", tuple(policies), None))
    return DecisionCase(
        graph=graph,
        category=rng.choice((None,) + _CATEGORIES),
        subject=rng.choice(_ROLES),
        role_order=None,
        parties=parties,
        external=rng.choice(_EXTERNAL_FUNCTIONS),
        purposes=purposes,
        edges=edges,
        line=rng.randint(0, len(layers)),
        attached=_subset(rng, purposes, 0.6) if rng.random() < 0.4 else None,
    )


def random_prohibiting_case(rng: random.Random) -> DecisionCase:
    """2-4 parties whose prohibitions all reach a cross-party merge that ranks them.

    In `random_decision_case` few prohibitions survive: a policy must apply,
    and the default fold intersects prohibited sets. Here every policy
    applies (one shared null leaf, no guards) and prohibits at least one
    purpose, a party of two policies joins them with `+`, which keeps both
    prohibitions, and the parties merge by F5-F8, which rank one side: a
    bare name most often, so every party's prohibitions are ranked.
    """
    layers, edges, purposes = _purpose_layers(rng)
    leaf = TreeLeaf(NullCondition())
    parties = []
    for i in range(rng.randint(2, 4)):
        policies = []
        for j in range(rng.randint(1, 2)):
            ap = _subset(rng, purposes)
            pp = frozenset(rng.sample(purposes, rng.randint(1, 2)))
            policies.append(Policy(f"q{j}", 3, leaf, ap=ap, pp=pp))
        expr = ("op", "+", ("ref", "q0"), ("ref", "q1")) if len(policies) == 2 else None
        parties.append((f"P{i}", tuple(policies), expr))
    external: str | tuple = rng.choice(_RANKED_EXTERNAL_FUNCTIONS)
    if rng.random() < 0.3:
        external = _random_expr_tree(rng, [name for name, _, _ in parties], _RANKED_EXTERNAL_FUNCTIONS, 3)
    return DecisionCase(
        graph=ProvenanceGraph(),
        category=None,
        subject=rng.choice(_ROLES),
        role_order=None,
        parties=parties,
        external=external,
        purposes=purposes,
        edges=edges,
        line=rng.randint(0, len(layers)),
        attached=None,
    )


def _rebuilt(tree):
    """A tree equal to `tree` that shares no node or leaf condition object with it."""
    if isinstance(tree, TreeLeaf):
        return TreeLeaf(replace(tree.condition))
    return TreeBranch(tree.op, tuple(map(_rebuilt, tree.children)))


def with_shared_shapes(rng: random.Random, case: DecisionCase) -> DecisionCase:
    """`case` with 1-4 more policies per party that copy a policy's tree and guards.

    Each copy has a new id and its own AP/PP. About half share the tree
    object they copy; the others get a rebuilt tree, equal by value only. The
    copies are shuffled in among the originals, so a copy may come before
    the policy it copies. A party's expression still names only its original
    policies.
    """
    parties = []
    for name, policies, expr in case.parties:
        mixed = list(policies)
        for j in range(rng.randint(1, 4)):
            src = rng.choice(policies)
            guarded = src.subjects is not None or src.categories is not None
            ptype = 4 if guarded else rng.randint(1, 3)
            mixed.append(
                Policy(
                    f"c{j}",
                    ptype,
                    src.tree if rng.random() < 0.5 else _rebuilt(src.tree),
                    ap=_subset(rng, case.purposes) if ptype != 2 else frozenset(),
                    pp=_subset(rng, case.purposes) if ptype != 1 else frozenset(),
                    subjects=src.subjects,
                    categories=src.categories,
                )
            )
        rng.shuffle(mixed)
        parties.append((name, tuple(mixed), expr))
    return case._replace(parties=parties)


def repeated_requests(rng: random.Random, case: DecisionCase, n: int) -> list[tuple[DataRecord, Request]]:
    """`n` requests against `case`'s parties, drawn from a few records and subjects.

    The records pair the case's graph and two more of its kind with the
    case's category and one other, and the subjects are the case's and one
    other, so the same policies apply again and again, as when one set of
    parties decides a stream of records.
    """
    graphs = [case.graph, _random_main_vertices(rng), _random_main_vertices(rng)]
    categories = (case.category, rng.choice((None,) + _CATEGORIES))
    records = [DataRecord(g, category=c, attached_purposes=case.attached) for g in graphs for c in categories]
    subjects = (case.subject, rng.choice(_ROLES))
    return [(rng.choice(records), Request(rng.choice(subjects))) for _ in range(n)]
