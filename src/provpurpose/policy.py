"""Policies: guarded access trees that grant or prohibit purposes.

A policy couples an access tree over provenance conditions with a granted
purpose set (AP), a prohibited purpose set (PP), and optional subject/category
guards. Four shapes exist:

* type 1 grants only (PP empty),
* type 2 prohibits only (AP empty),
* type 3 may do both but carries no guards,
* type 4 adds subject and/or data-category guards.

Access trees combine partition, path, target, and atomic leaves with AND/OR;
AND takes the worst leaf value, OR the best. A policy is applicable to a
request exactly when its guards pass and the tree evaluates to a FULL match;
the lower strata are diagnostic only and never release purposes.

Subject guards compare the requester's role with the policy's subjects under
an optional role order (junior -> seniors, reflexive and transitive); without
one, only equal role names match. Category guards treat a data category as
covered by a policy category when it equals it or occurs inside it (so a
record tagged "assignment" satisfies a policy scoped to "assignments").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Union

from . import _docs
from ._dagutil import reachable_from
from .algebra import MAX_NESTING
from .errors import ConfigurationError, InputFormatError
from .matching import (
    AtomicCondition,
    AttrCondition,
    AttrConstraint,
    MatchValue,
    NullCondition,
    PathPattern,
    PatternEdge,
    PatternVertex,
    Predicate,
    ProvenancePartition,
    QueryCondition,
    TargetCondition,
    VertexCondition,
    eval_atomic,
    match_and,
    match_or,
    match_partition,
    match_path,
    parse_path_pattern,
)
from .provenance import (
    AttrValue,
    EdgeLabel,
    ProvenanceGraph,
    attr_value_from_json,
    vertex_type_from_json,
)
from .purposes import PurposeGraph, PurposeSet

LeafCondition = Union[ProvenancePartition, PathPattern, AtomicCondition]


class TreeOp(str, Enum):
    AND = "AND"
    OR = "OR"


@dataclass(frozen=True)
class TreeLeaf:
    condition: LeafCondition


@dataclass(frozen=True)
class TreeBranch:
    op: TreeOp
    children: tuple["AccessTree", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise InputFormatError("access tree branch needs at least one child")


AccessTree = Union[TreeLeaf, TreeBranch]


def eval_access_tree(
    tree: AccessTree,
    graph: ProvenanceGraph,
    query_attrs: Mapping[str, AttrValue] | None = None,
) -> MatchValue:
    """Evaluate a tree bottom-up; AND is min, OR is max over the chain."""
    if isinstance(tree, TreeLeaf):
        cond = tree.condition
        if isinstance(cond, ProvenancePartition):
            return match_partition(cond, graph)
        if isinstance(cond, PathPattern):
            return match_path(cond, graph)
        return eval_atomic(cond, graph, query_attrs)
    values = [eval_access_tree(child, graph, query_attrs) for child in tree.children]
    return match_and(*values) if tree.op is TreeOp.AND else match_or(*values)


# -- policies -------------------------------------------------------------------

@dataclass(frozen=True)
class Policy:
    id: str
    ptype: int
    tree: AccessTree
    ap: PurposeSet = frozenset()
    pp: PurposeSet = frozenset()
    subjects: frozenset[str] | None = None
    categories: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.ptype not in (1, 2, 3, 4):
            raise InputFormatError(f"policy {self.id!r}: type must be 1-4, got {self.ptype}")
        if self.ptype == 1 and self.pp:
            raise InputFormatError(f"policy {self.id!r}: type 1 must not prohibit purposes")
        if self.ptype == 2 and self.ap:
            raise InputFormatError(f"policy {self.id!r}: type 2 must not grant purposes")
        if self.ptype == 3 and (self.subjects is not None or self.categories is not None):
            raise InputFormatError(f"policy {self.id!r}: type 3 carries no guards")
        if self.ptype == 4 and self.subjects is None and self.categories is None:
            raise InputFormatError(f"policy {self.id!r}: type 4 needs subjects or categories")


@dataclass(frozen=True)
class Request:
    subject: str
    category: str | None = None
    query_attrs: Mapping[str, AttrValue] = field(default_factory=dict)


@dataclass(frozen=True)
class PolicyDecision:
    applicable: bool
    ap: PurposeSet
    pp: PurposeSet
    tree_value: MatchValue
    guards_ok: bool


RoleOrder = Mapping[str, frozenset[str]]


def role_leq(junior: str, senior: str, order: RoleOrder | None = None) -> bool:
    """True when `junior` is covered by `senior` under the role order."""
    return senior in reachable_from(junior, order or {})


def category_covered(data_category: str, policy_category: str) -> bool:
    return data_category == policy_category or data_category in policy_category


def guards_pass(
    policy: Policy,
    request: Request,
    data_category: str | None,
    role_order: RoleOrder | None = None,
) -> bool:
    """Subject and category guards; absent guards always pass."""
    if policy.subjects is not None:
        if not any(role_leq(request.subject, s, role_order) for s in policy.subjects):
            return False
    if policy.categories is not None:
        if data_category is None:
            return False
        if not any(category_covered(data_category, k) for k in policy.categories):
            return False
    return True


def evaluate_policy(
    policy: Policy,
    graph: ProvenanceGraph,
    request: Request,
    data_category: str | None = None,
    role_order: RoleOrder | None = None,
    purpose_graph: PurposeGraph | None = None,
) -> PolicyDecision:
    """Decide whether a policy applies and which purposes it releases.

    With a purpose graph supplied, the policy's purposes must all be members
    of it. Purposes are released only on a FULL tree match with passing
    guards; otherwise both sets come back empty and the trace fields say why.
    """
    if purpose_graph is not None:
        unknown = (policy.ap | policy.pp) - purpose_graph.purposes
        if unknown:
            raise ConfigurationError(
                f"policy {policy.id!r} uses purpose {min(unknown)!r} not in the purpose graph"
            )
    guards_ok = guards_pass(policy, request, data_category, role_order)
    tree_value = eval_access_tree(policy.tree, graph, request.query_attrs)
    applicable = guards_ok and tree_value is MatchValue.FULL
    if applicable:
        return PolicyDecision(True, policy.ap, policy.pp, tree_value, guards_ok)
    return PolicyDecision(False, frozenset(), frozenset(), tree_value, guards_ok)


# -- document loading -----------------------------------------------------------

def _constraint(doc: Any) -> AttrConstraint:
    item, op, value = _docs.entry(doc, 3, "attribute constraint")
    pred = _docs.member(Predicate, op, "predicate")
    return AttrConstraint(str(item), pred, attr_value_from_json(value))


def _partition_from_dict(doc: Any) -> ProvenancePartition:
    doc = _docs.obj(doc, "partition")
    vertices = []
    for entry in _docs.array(doc.get("vertices", []), "partition vertices"):
        try:
            ref, vtype, name = str(entry["ref"]), entry["type"], entry.get("name")
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"partition vertex {entry!r} needs ref/type") from exc
        vertices.append(
            PatternVertex(
                ref=ref,
                vtype=vertex_type_from_json(vtype),
                name=None if name is None else str(name),
                constraints=tuple(map(_constraint, _docs.array(entry.get("attrs", []), '"attrs"'))),
            )
        )
    edges = []
    for entry in _docs.array(doc.get("edges", []), "partition edges"):
        src, dst, label = _docs.entry(entry, 3, "partition edge")
        edge_label = None if label == "*" else _docs.member(EdgeLabel, label, "edge label")
        edges.append(PatternEdge(str(src), str(dst), edge_label))
    return ProvenancePartition(tuple(vertices), tuple(edges))


def condition_from_dict(doc: Mapping[str, Any]) -> LeafCondition:
    """Decode one leaf condition from its document form."""
    if len(_docs.obj(doc, "condition")) != 1:
        raise InputFormatError(f"condition {doc!r} must have exactly one kind key")
    kind, value = next(iter(doc.items()))
    if kind == "path":
        return parse_path_pattern(str(value))
    if kind == "target":
        return TargetCondition(str(value))
    if kind == "partition":
        return _partition_from_dict(value)
    if kind == "null":
        return NullCondition()
    if kind == "vertex":
        vtype, name = _docs.entry(value, 2, "vertex condition")
        return VertexCondition(vertex_type_from_json(vtype), str(name))
    if kind == "attr":
        vtype, name, *constraint = _docs.entry(value, 5, "attr condition")
        c = _constraint(constraint)
        return AttrCondition(vertex_type_from_json(vtype), str(name), c.item, c.pred, c.operand)
    if kind == "query":
        vtype, name, attr, op = _docs.entry(value, 4, "query condition")
        pred = _docs.member(Predicate, op, "predicate")
        return QueryCondition(vertex_type_from_json(vtype), str(name), str(attr), pred)
    raise InputFormatError(f"unknown condition kind {kind!r}")


def _tree_from_dict(doc: Any, leaves: Mapping[str, LeafCondition], depth: int = 1) -> AccessTree:
    """Decode a tree; its operator nodes nest at most `MAX_NESTING` levels deep."""
    if isinstance(doc, str):
        if doc not in leaves:
            raise InputFormatError(f"access tree references unknown partition {doc!r}")
        return TreeLeaf(leaves[doc])
    if depth > MAX_NESTING:
        raise InputFormatError(f"access tree nests deeper than {MAX_NESTING} levels")
    if len(_docs.obj(doc, "access tree node")) != 1:
        raise InputFormatError(f"access tree node {doc!r} must have exactly one operator")
    op_name, children = next(iter(doc.items()))
    op = _docs.member(TreeOp, op_name, "tree operator")
    children = _docs.array(children, f"{op.value} children")
    return TreeBranch(op, tuple(_tree_from_dict(c, leaves, depth + 1) for c in children))


def _infer_type(subjects: Any, categories: Any, ap: PurposeSet, pp: PurposeSet) -> int:
    if subjects is not None or categories is not None:
        return 4
    if ap and pp:
        return 3
    if pp:
        return 2
    return 1


def policy_from_dict(doc: Mapping[str, Any], default_id: str = "policy") -> Policy:
    """Decode a policy document.

    Expected fields: subject, category, provenance_partitions, access_tree,
    AP, PP, plus optional id and type. The tree defaults to the sole
    partition when there is exactly one and no access_tree field.
    """
    doc = _docs.obj(doc, "policy document")
    raw_partitions = _docs.obj(doc.get("provenance_partitions", {}), '"provenance_partitions"')
    leaves = {str(k): condition_from_dict(v) for k, v in raw_partitions.items()}
    tree_doc = doc.get("access_tree")
    if tree_doc is None:
        if len(leaves) != 1:
            raise InputFormatError('policy needs an "access_tree" unless it has exactly one partition')
        tree: AccessTree = TreeLeaf(next(iter(leaves.values())))
    else:
        tree = _tree_from_dict(tree_doc, leaves)
    subjects, categories = (
        None if doc.get(key) is None else _docs.names(doc[key], f'"{key}"')
        for key in ("subject", "category")
    )
    ap = _docs.names(doc.get("AP", []), '"AP"')
    pp = _docs.names(doc.get("PP", []), '"PP"')
    ptype = doc.get("type")
    if ptype is None:
        ptype = _infer_type(subjects, categories, ap, pp)
    return Policy(
        id=str(doc.get("id", default_id)),
        ptype=_docs.integer(ptype, '"type"'),
        tree=tree,
        ap=ap,
        pp=pp,
        subjects=subjects,
        categories=categories,
    )


def request_from_dict(doc: Mapping[str, Any]) -> tuple[Request, PurposeSet | None]:
    """Decode a request document: {subject, category, query_attrs}.

    An optional "attached_purposes" array rides along for CLI use and is
    returned separately; it describes the data record, not the requester.
    """
    if "subject" not in _docs.obj(doc, "request document"):
        raise InputFormatError('request document needs a "subject"')
    category = doc.get("category")
    raw_attrs = doc.get("query_attrs")
    raw_attrs = _docs.obj({} if raw_attrs is None else raw_attrs, '"query_attrs"')
    request = Request(
        subject=str(doc["subject"]),
        category=None if category is None else str(category),
        query_attrs={str(k): attr_value_from_json(v) for k, v in raw_attrs.items()},
    )
    attached = doc.get("attached_purposes")
    return request, None if attached is None else _docs.names(attached, '"attached_purposes"')


def role_order_from_dict(doc: Mapping[str, Any]) -> RoleOrder:
    """Decode {junior: [senior, ...]} into a role order."""
    return {
        str(junior): _docs.names(seniors, f"senior roles of {junior!r}")
        for junior, seniors in _docs.obj(doc, "role order document").items()
    }


def load_policy(path: str, default_id: str = "policy") -> Policy:
    return _docs.load(path, lambda doc: policy_from_dict(doc, default_id))


def load_request(path: str) -> tuple[Request, PurposeSet | None]:
    return _docs.load(path, request_from_dict)


def load_role_order(path: str) -> RoleOrder:
    return _docs.load(path, role_order_from_dict)
