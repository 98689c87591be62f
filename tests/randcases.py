"""Seeded random graphs, patterns and decision cases for oracle comparisons."""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from provpurpose import (
    ALLOWED_EDGES,
    AttrConstraint,
    BasicOp,
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


def _random_policy(rng: random.Random, pid: str, pool: Sequence[str], leaves: list) -> Policy:
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
    return Policy(pid, ptype, _random_tree(rng, leaves), ap=ap, pp=pp, subjects=subjects, categories=categories)


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
    graph = ProvenanceGraph()
    for _ in range(rng.randint(1, 6)):
        graph.add_vertex(rng.choice(_MAIN_TYPES), rng.choice(_NAMES[:3]))
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
