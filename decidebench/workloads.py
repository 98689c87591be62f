"""Seeded input documents for the decide benchmark, and the set-up that decodes them.

A workload is a function ``seed -> documents``. The documents are plain JSON
values in the package's input formats (purpose graph, provenance graphs,
policies, requests, role order), so the program under test sees only what a
caller would hand it. The same seed always yields byte-identical documents:
every random choice comes from one ``random.Random`` seeded with the workload
name and the seed.

Document layout shared by all workloads::

    {"purposes": {...}, "roles": {...} | None, "external": "F3",
     "parties": [{"party": name, "internal_expr": text | None, "policies": [...]}],
     "records": [{"graph": {...}, "category": name, "attached_purposes": [...] | None}],
     "requests": [{"subject": role, "category": name}],
     "chains": [record index, ...]}

Decision ``k`` of a pass decides ``records[k]`` under ``requests[k]``.
``chains`` is the benchmark's own key; the loaders never see it. It lists
the records that are single long derivation chains, on which ``match_path``
recurses once per vertex of the chain and can exceed Python's recursion
limit, a known defect of the package. Such a ``RecursionError`` counts as a
failed decision without making the run incorrect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from provpurpose import engine, policy, provenance, purposes, synth
from provpurpose.matching import ProvenancePartition, VertexCondition
from provpurpose.policy import TreeBranch, TreeLeaf

Documents = dict[str, Any]

INTERNAL_FUNCTIONS = (
    "f_oplus", "f_ominus", "f_otimes", "f_oslash", "f_odot", "f_uplus", "f_dotplus",
    "f_dcap", "f_dcup", "f_boxtimes", "f_boxdot", "f_boxplus", "f_divtimes",
)


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512 inside `random`, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}")


def _layered_purposes(rng: random.Random, n: int, prefix: str) -> dict[str, Any]:
    """A layered purpose DAG: each purpose has one or two parents one layer up."""
    names = [f"{prefix}{i:04d}" for i in range(n)]
    layers = [[names[0]]]
    edges: list[list[str]] = []
    i = 1
    while i < n:
        layer = names[i : i + min(n - i, rng.randint(4, 24))]
        i += len(layer)
        for child in layer:
            for parent in rng.sample(layers[-1], min(len(layers[-1]), rng.randint(1, 2))):
                edges.append([parent, child])
        layers.append(layer)
    return {"purposes": names, "edges": edges, "hierarchy_line": (len(layers) - 1) // 2}


def _sample(rng: random.Random, pool: list[str], low: int, high: int) -> list[str]:
    return sorted(rng.sample(pool, rng.randint(low, min(high, len(pool)))))


# -- rows_f3 ----------------------------------------------------------------------

ROWS_F3_RECORDS = 200
ROWS_F3_PARTIES = 4


def _condition_doc(cond: Any) -> dict[str, Any]:
    if isinstance(cond, ProvenancePartition):
        vertices = []
        for v in cond.vertices:
            entry: dict[str, Any] = {"ref": v.ref, "type": v.vtype.value}
            if v.name is not None:
                entry["name"] = v.name
            if v.constraints:
                entry["attrs"] = [[c.item, c.pred.value, c.operand] for c in v.constraints]
            vertices.append(entry)
        edges = [[e.src, e.dst, "*" if e.label is None else e.label.value] for e in cond.edges]
        return {"partition": {"vertices": vertices, "edges": edges}}
    if isinstance(cond, VertexCondition):
        return {"vertex": [cond.vtype.value, cond.name]}
    raise TypeError(f"no document form for condition {cond!r}")


def _tree_doc(tree: Any, leaves: dict[str, Any]) -> Any:
    if isinstance(tree, TreeLeaf):
        name = f"c{len(leaves)}"
        leaves[name] = _condition_doc(tree.condition)
        return name
    assert isinstance(tree, TreeBranch)
    return {tree.op.value: [_tree_doc(child, leaves) for child in tree.children]}


def policy_doc(pol: policy.Policy) -> dict[str, Any]:
    """The document form of a generated policy, as `policy_from_dict` reads it."""
    leaves: dict[str, Any] = {}
    tree = _tree_doc(pol.tree, leaves)
    doc: dict[str, Any] = {
        "id": pol.id,
        "type": pol.ptype,
        "provenance_partitions": leaves,
        "access_tree": tree,
        "AP": sorted(pol.ap),
        "PP": sorted(pol.pp),
    }
    if pol.subjects is not None:
        doc["subject"] = sorted(pol.subjects)
    if pol.categories is not None:
        doc["category"] = sorted(pol.categories)
    return doc


def rows_f3(seed: int) -> Documents:
    """The ROADMAP baseline: `gen_synthetic` rows, 400 policies in 4 parties, F3."""
    data = synth.gen_synthetic(
        synth.BenchConfig(seed=seed, n_purposes=200, n_rows=ROWS_F3_RECORDS, n_policies=400)
    )
    rng = _rng("rows_f3", seed)
    policies = [policy_doc(p) for p in data.policies]
    subjects = sorted({s for p in data.policies for s in p.subjects or ()}) + ["guest"]
    categories = sorted({c for p in data.policies for c in p.categories or ()})
    pool = sorted(data.purpose_graph.purposes)
    records = [
        {
            "graph": provenance.graph_to_dict(g),
            "category": rng.choice(categories),
            "attached_purposes": _sample(rng, pool, 60, 140) if rng.random() < 0.5 else None,
        }
        for g in data.graphs
    ]
    return {
        "purposes": purposes.purpose_graph_to_dict(data.purpose_graph),
        "roles": None,
        "external": "F3",
        "parties": [
            {"party": f"party{i}", "internal_expr": None, "policies": policies[i::ROWS_F3_PARTIES]}
            for i in range(ROWS_F3_PARTIES)
        ],
        "records": records,
        "requests": [
            {"subject": rng.choice(subjects), "category": r["category"]} for r in records
        ],
        "chains": [],
    }


# -- deep_lineage -------------------------------------------------------------------

#: Target vertex counts of the 100 records, from tens of vertices up to the
#: ~3,200-vertex case; most lineages are small and a few are large. Graph
#: shapes, agent roles, requests and the order of the records follow from
#: the record's index, not from the seed: at equal work (call counts) the
#: time to decide a pass moved by up to 15% with the seeded shapes, and the
#: median decision with the seeded roles and requests. The seed varies the
#: purposes, policies' purpose sets, attached purposes and attribute values.
LINEAGE_SIZES = tuple(round(30 * (3200 / 30) ** ((i / 99) ** 2)) for i in range(100))
#: Vertex counts of the records that are single derivation chains, as deep
#: as they are large, up to the ~3,200-vertex chain on which `match_path`
#: is known to exceed Python's recursion limit.
CHAIN_SIZES = (800, 1600, 2400, 3200)
LINEAGE_AGENTS = 6
LINEAGE_STEPS = ("Clean", "Join", "Aggregate", "Anonymise", "Train", "Report")
LINEAGE_ROLES = ("steward", "engineer", "analyst")
LINEAGE_CATEGORIES = ("clinical", "billing", "research")
LINEAGE_SUBJECTS = ("steward", "analyst", "intern", "guest")


class _GraphDoc:
    """A provenance graph document, built vertex by vertex, with its agents."""

    def __init__(self, rng: random.Random) -> None:
        self.vertices: list[dict[str, Any]] = []
        self.edges: list[dict[str, str]] = []
        self.agents = [
            self.vertex("Agent", f"agent_{i}", {"role": rng.choice(LINEAGE_ROLES)})
            for i in range(LINEAGE_AGENTS)
        ]

    def vertex(self, vtype: str, name: str, attrs: dict[str, Any]) -> str:
        vid = f"v{len(self.vertices)}"
        self.vertices.append({"id": vid, "type": vtype, "name": name, "attrs": attrs})
        return vid

    def edge(self, src: str, dst: str, label: str) -> None:
        self.edges.append({"src": src, "dst": dst, "label": label})

    @staticmethod
    def steps(target_vertices: int) -> int:
        """Steps that make about `target_vertices` vertices with the agents.

        A step adds a process and an artifact, each with its attribute vertex.
        """
        return max(2, (target_vertices - 2 * LINEAGE_AGENTS) // 4)

    def doc(self) -> dict[str, Any]:
        return {"vertices": self.vertices, "edges": self.edges}


def _shape_rng(index: int) -> random.Random:
    return _rng("deep_lineage/shape", index)


def _lineage_graph(rng: random.Random, index: int, target_vertices: int) -> dict[str, Any]:
    """Derivation chains with fan-in, each step controlled by an agent.

    Steps sit in layers about as wide as the graph is deep. A step is a
    process with attributes that uses one to three artifacts of the layer
    before, generates one artifact with attributes and records that it was
    derived from its inputs. A final Publish step yields the record itself.
    `rng` draws the attribute values; the rest follows from `index`.
    """
    shape = _shape_rng(index)
    g = _GraphDoc(shape)
    steps = g.steps(target_vertices)
    width = max(1, round(math.sqrt(steps)))
    layer: list[tuple[str, str]] = []  # (process, artifact) of the previous layer
    offset = shape.randrange(len(LINEAGE_STEPS))
    made = 0
    depth = 0
    while made < steps - 1:
        current = []
        for _ in range(min(width, steps - 1 - made)):
            # cycling through the step kinds and sensitivities puts every kind
            # in all but the smallest graphs
            name = "Ingest" if depth == 0 else LINEAGE_STEPS[(made + offset) % len(LINEAGE_STEPS)]
            proc = g.vertex("Process", name, {"workers": rng.randint(1, 64)})
            g.edge(proc, shape.choice(g.agents), "wasControlledBy")
            art = g.vertex(
                "Artifact",
                f"ds_{index}_{made}",
                {"rows": rng.randint(1, 10**6), "sensitivity": 1 + (made + offset) % 5},
            )
            g.edge(art, proc, "wasGeneratedBy")
            for src_proc, src_art in shape.sample(layer, min(len(layer), shape.randint(1, 3))):
                g.edge(proc, src_art, "used")
                g.edge(art, src_art, "wasDerivedFrom")
                if shape.random() < 0.2:
                    g.edge(proc, src_proc, "wasTriggeredBy")
            current.append((proc, art))
            made += 1
        layer = current
        depth += 1
    publish = g.vertex("Process", "Publish", {"workers": 1})
    g.edge(publish, shape.choice(g.agents), "wasControlledBy")
    record = g.vertex("Artifact", f"record_{index}", {"rows": rng.randint(1, 10**6), "sensitivity": 1})
    g.edge(record, publish, "wasGeneratedBy")
    for _, src_art in shape.sample(layer, min(len(layer), 3)):
        g.edge(publish, src_art, "used")
        g.edge(record, src_art, "wasDerivedFrom")
    return g.doc()


def _chain_graph(rng: random.Random, index: int, target_vertices: int) -> dict[str, Any]:
    """One derivation chain: each step uses and derives from the artifact before it.

    Vertices are listed from the record back to the source, the order in
    which a lineage crawler starting at the record meets them.
    """
    shape = _shape_rng(index)
    g = _GraphDoc(shape)
    steps = g.steps(target_vertices)
    previous = None
    for made in range(steps):
        last = made == steps - 1
        name = "Ingest" if made == 0 else "Publish" if last else LINEAGE_STEPS[made % len(LINEAGE_STEPS)]
        proc = g.vertex("Process", name, {"workers": rng.randint(1, 64)})
        g.edge(proc, shape.choice(g.agents), "wasControlledBy")
        art = g.vertex(
            "Artifact",
            f"record_{index}" if last else f"ds_{index}_{made}",
            {"rows": rng.randint(1, 10**6), "sensitivity": 1 + made % 5},
        )
        g.edge(art, proc, "wasGeneratedBy")
        if previous is not None:
            g.edge(proc, previous, "used")
            g.edge(art, previous, "wasDerivedFrom")
        previous = art
    g.vertices.reverse()
    return g.doc()


def _lineage_policies(rng: random.Random, pool: list[str]) -> list[dict[str, Any]]:
    def purposes_(k: int) -> list[str]:
        return sorted(rng.sample(pool, k))

    join_controlled = {  # fails at FULL: no artifact has ten million rows
        "vertices": [
            {"ref": "t0", "type": "Process", "name": "Join"},
            {"ref": "t1", "type": "Artifact", "attrs": [["rows", ">", 10**7]]},
            {"ref": "t2", "type": "Agent"},
        ],
        "edges": [["t1", "t0", "wasGeneratedBy"], ["t0", "t2", "wasControlledBy"]],
    }
    public_source = {  # fails at FULL: sensitivity is never below 1
        "vertices": [
            {"ref": "t0", "type": "Artifact", "attrs": [["sensitivity", "<", 1]]},
            {"ref": "t1", "type": "Artifact"},
        ],
        "edges": [["t1", "t0", "wasDerivedFrom"]],
    }
    lab = [
        {
            "id": "lab_join", "type": 3,
            "provenance_partitions": {"p": {"partition": join_controlled}},
            "AP": purposes_(3), "PP": purposes_(1),
        },
        {
            "id": "lab_published", "type": 1,
            "provenance_partitions": {
                "p": {"target": '/process[name="Publish"]/agent[role="steward"]'}
            },
            "AP": purposes_(4),
        },
        {
            "id": "lab_anonymised", "type": 2,
            "provenance_partitions": {"p": {"path": "wasGeneratedBy|Publish, \\v*, used|Anonymise"}},
            "PP": purposes_(2),
        },
    ]
    registry = [
        {
            "id": "registry_steward", "type": 4,
            "subject": ["steward"], "category": ["clinical", "research"],
            "provenance_partitions": {
                "a": {"attr": ["Agent", "agent_2", "role", "=", "steward"]},
                "b": {"vertex": ["Process", "Publish"]},
            },
            "access_tree": {"AND": ["a", "b"]},
            "AP": purposes_(4), "PP": purposes_(1),
        },
        {
            "id": "registry_public", "type": 3,
            "provenance_partitions": {
                "a": {"partition": public_source},
                "b": {"target": '/artifact[sensitivity<=2]/process[name="Train"]'},
            },
            "access_tree": {"OR": ["a", "b"]},
            "AP": purposes_(3), "PP": purposes_(2),
        },
        {
            "id": "registry_bulk", "type": 1,
            "provenance_partitions": {
                "a": {"vertex": ["Agent", "agent_5"]},
                # the walk to an Ingest step descends the whole lineage
                "b": {"path": "wasGeneratedBy|Publish, \\v*, wasTriggeredBy|Ingest"},
            },
            "access_tree": {"AND": ["a", "b"]},
            "AP": purposes_(5),
        },
    ]
    return [
        {"party": "lab", "internal_expr": None, "policies": lab},
        {
            "party": "registry",
            "internal_expr": "f_dcap(registry_steward, f_oplus(registry_public, registry_bulk))",
            "policies": registry,
        },
    ]


def deep_lineage(seed: int) -> Documents:
    """Large lineage graphs, few policies: matching does most of the work.

    The layered graphs come first, in an order fixed across seeds; the
    chains follow.
    """
    rng = _rng("deep_lineage", seed)
    pg = _layered_purposes(rng, 40, "u")
    pool = pg["purposes"][1:]
    parties = _lineage_policies(rng, pool)
    fixed = _shape_rng(-1)
    order = list(range(len(LINEAGE_SIZES)))
    fixed.shuffle(order)
    records = [
        {
            "graph": _lineage_graph(rng, i, LINEAGE_SIZES[i]),
            "category": fixed.choice(LINEAGE_CATEGORIES),
            "attached_purposes": _sample(rng, pool, 8, 24) if rng.random() < 0.5 else None,
        }
        for i in order
    ]
    chains = list(range(len(records), len(records) + len(CHAIN_SIZES)))
    records += [
        {
            "graph": _chain_graph(rng, k, size),
            "category": fixed.choice(LINEAGE_CATEGORIES),
            "attached_purposes": _sample(rng, pool, 8, 24) if rng.random() < 0.5 else None,
        }
        for k, size in zip(chains, CHAIN_SIZES)
    ]
    return {
        "purposes": pg,
        "roles": {"intern": ["analyst"], "analyst": ["steward"]},
        "external": "F1",
        "parties": parties,
        "records": records,
        "requests": [
            {"subject": fixed.choice(LINEAGE_SUBJECTS), "category": r["category"]} for r in records
        ],
        "chains": chains,
    }


# -- party_algebra --------------------------------------------------------------------

ALGEBRA_PARTIES = ("hospital", "lab", "registry", "insurer", "university", "regulator", "archive", "sponsor")
ALGEBRA_POLICIES = 32
ALGEBRA_RECORDS = 120
ALGEBRA_SUBJECTS = ("clinician", "researcher", "auditor", "guest")
ALGEBRA_CATEGORIES = ("clinical", "genomic", "billing", "survey")


def _internal_expr(rng: random.Random, ids: list[str]) -> str:
    """A random binary merge tree over `ids` that applies all 13 functions."""
    operands = list(ids)
    rng.shuffle(operands)
    functions = list(INTERNAL_FUNCTIONS) * 3
    rng.shuffle(functions)
    while len(operands) > 1:
        i = rng.randrange(len(operands) - 1)
        operands[i : i + 2] = [f"{functions.pop()}({operands[i]}, {operands[i + 1]})"]
    return operands[0]


def _algebra_policy(rng: random.Random, pid: str, i: int, pool: list[str]) -> dict[str, Any]:
    """Policy `i` of a party. Its shape (type, condition, set sizes, guards)
    follows from `i` alone, so seeds differ in purposes, not in how much work
    a policy makes."""
    ptype = 1 + i % 4
    doc: dict[str, Any] = {"id": pid, "type": ptype}
    condition = {"null": True} if i % 8 < 4 else {"vertex": ["Process", "Insert"]}
    doc["provenance_partitions"] = {"p": condition}
    if ptype in (1, 3, 4):
        doc["AP"] = sorted(rng.sample(pool, 20 + 8 * (i % 5)))
    if ptype in (2, 3, 4):
        doc["PP"] = sorted(rng.sample(pool, 5 + 5 * (i % 3)))
    if ptype == 4:
        doc["subject"] = [ALGEBRA_SUBJECTS[i // 4 % 3]]
        doc["category"] = sorted(ALGEBRA_CATEGORIES[j % 4] for j in range(i // 8, i // 8 + 2))
    return doc


def _insert_graph(rng: random.Random, index: int) -> dict[str, Any]:
    return {
        "vertices": [
            {"id": "agent", "type": "Agent", "name": f"user_{rng.randrange(10)}"},
            {"id": "proc", "type": "Process", "name": "Insert"},
            {"id": "row", "type": "Artifact", "name": f"row_{index}",
             "attrs": {"visits": rng.randint(1, 500)}},
        ],
        "edges": [
            {"src": "row", "dst": "proc", "label": "wasGeneratedBy"},
            {"src": "proc", "dst": "agent", "label": "wasControlledBy"},
        ],
    }


def party_algebra(seed: int) -> Documents:
    """Many parties and purposes, trivial trees: the algebras do the work."""
    rng = _rng("party_algebra", seed)
    pg = _layered_purposes(rng, 2000, "q")
    pool = pg["purposes"]
    parties = []
    for name in ALGEBRA_PARTIES:
        ids = [f"{name}_{i:02d}" for i in range(ALGEBRA_POLICIES)]
        parties.append({
            "party": name,
            "internal_expr": _internal_expr(rng, ids),
            "policies": [_algebra_policy(rng, pid, i, pool) for i, pid in enumerate(ids)],
        })
    names = list(ALGEBRA_PARTIES)
    rng.shuffle(names)
    fns = ["F5", "F6", "F7", "F8"]
    rng.shuffle(fns)
    external = (
        f"{fns[0]}({fns[1]}({names[0]}, {names[1]}), {fns[2]}({names[2]}, {names[3]}))"
        f" + {fns[3]}({fns[0]}({names[4]}, {names[5]}), {fns[1]}({names[6]}, {names[7]}))"
    )
    # subjects and categories cycle, so every seed has the same guard outcomes
    records = [
        {
            "graph": _insert_graph(rng, i),
            "category": ALGEBRA_CATEGORIES[i // 4 % 4],
            "attached_purposes": sorted(rng.sample(pool, 900)),
        }
        for i in range(ALGEBRA_RECORDS)
    ]
    return {
        "purposes": pg,
        "roles": {"researcher": ["clinician"], "guest": ["researcher"]},
        "external": external,
        "parties": parties,
        "records": records,
        "requests": [
            {"subject": ALGEBRA_SUBJECTS[i % 4], "category": r["category"]}
            for i, r in enumerate(records)
        ],
        "chains": [],
    }


WORKLOADS: dict[str, Callable[[int], Documents]] = {
    "rows_f3": rows_f3,
    "deep_lineage": deep_lineage,
    "party_algebra": party_algebra,
}


# -- set-up: documents -> program objects -------------------------------------------------

@dataclass(frozen=True)
class Loaded:
    pg: purposes.PurposeGraph
    role_order: policy.RoleOrder | None
    parties: tuple[engine.PartyConfig, ...]
    external: str
    records: tuple[engine.DataRecord, ...]
    requests: tuple[policy.Request, ...]


class InvalidGraph(Exception):
    """A generated provenance graph failed `validate`; the workload is broken."""


def load(docs: Documents) -> Loaded:
    """Decode the documents through the package's public loaders.

    Every loader is looked up on its module at call time, so a traced run
    that rebinds those attributes sees these calls.
    """
    pg = purposes.purpose_graph_from_dict(docs["purposes"])
    records = []
    for i, rec in enumerate(docs["records"]):
        graph = provenance.graph_from_dict(rec["graph"])
        report = graph.validate()
        if not report.ok:
            raise InvalidGraph(f"record {i}: {report.violations[:3]}")
        attached = rec["attached_purposes"]
        records.append(
            engine.DataRecord(
                provenance=graph,
                category=rec["category"],
                attached_purposes=None if attached is None else frozenset(attached),
            )
        )
    parties = tuple(
        engine.PartyConfig(
            party=p["party"],
            policies=tuple(policy.policy_from_dict(d) for d in p["policies"]),
            internal_expr=p["internal_expr"],
        )
        for p in docs["parties"]
    )
    roles = docs["roles"]
    return Loaded(
        pg=pg,
        role_order=None if roles is None else policy.role_order_from_dict(roles),
        parties=parties,
        external=docs["external"],
        records=tuple(records),
        requests=tuple(policy.request_from_dict(d)[0] for d in docs["requests"]),
    )
