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

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Union

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
    VertexType,
    attr_value_from_json,
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
    if junior == senior:
        return True
    if not order:
        return False
    seen = {junior}
    stack = [junior]
    while stack:
        for parent in order.get(stack.pop(), ()):  # type: ignore[call-overload]
            if parent == senior:
                return True
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return False


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

_VTYPE_BY_NAME = {t.value.lower(): t for t in VertexType}


def _vertex_type(name: Any) -> VertexType:
    try:
        return _VTYPE_BY_NAME[str(name).lower()]
    except KeyError:
        raise InputFormatError(f"unknown vertex type {name!r}") from None


def _predicate(token: Any) -> Predicate:
    try:
        return Predicate(str(token))
    except ValueError:
        raise InputFormatError(f"unknown predicate {token!r}") from None


def _partition_from_dict(doc: Mapping[str, Any]) -> ProvenancePartition:
    vertices = []
    for entry in doc.get("vertices", []):
        constraints = tuple(
            AttrConstraint(str(item), _predicate(op), attr_value_from_json(value))
            for item, op, value in entry.get("attrs", [])
        )
        name = entry.get("name")
        vertices.append(
            PatternVertex(
                ref=str(entry["ref"]),
                vtype=_vertex_type(entry["type"]),
                name=None if name is None else str(name),
                constraints=constraints,
            )
        )
    edges = []
    for entry in doc.get("edges", []):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise InputFormatError(f"bad partition edge {entry!r}; expected [src, dst, label]")
        src, dst, label = entry
        if label == "*":
            edge_label = None
        else:
            try:
                edge_label = EdgeLabel(str(label))
            except ValueError:
                raise InputFormatError(f"unknown edge label {label!r}") from None
        edges.append(PatternEdge(str(src), str(dst), edge_label))
    return ProvenancePartition(tuple(vertices), tuple(edges))


def condition_from_dict(doc: Mapping[str, Any]) -> LeafCondition:
    """Decode one leaf condition from its document form."""
    if not isinstance(doc, Mapping) or len(doc) != 1:
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
        vtype, name = value
        return VertexCondition(_vertex_type(vtype), str(name))
    if kind == "attr":
        vtype, name, item, op, operand = value
        return AttrCondition(
            _vertex_type(vtype), str(name), str(item), _predicate(op), attr_value_from_json(operand)
        )
    if kind == "query":
        vtype, name, attr, op = value
        return QueryCondition(_vertex_type(vtype), str(name), str(attr), _predicate(op))
    raise InputFormatError(f"unknown condition kind {kind!r}")


def _tree_from_dict(doc: Any, leaves: Mapping[str, LeafCondition]) -> AccessTree:
    if isinstance(doc, str):
        if doc not in leaves:
            raise InputFormatError(f"access tree references unknown partition {doc!r}")
        return TreeLeaf(leaves[doc])
    if isinstance(doc, Mapping) and len(doc) == 1:
        op_name, children = next(iter(doc.items()))
        try:
            op = TreeOp(str(op_name))
        except ValueError:
            raise InputFormatError(f"unknown tree operator {op_name!r}") from None
        if not isinstance(children, list) or not children:
            raise InputFormatError(f"{op_name} needs a non-empty child array")
        return TreeBranch(op, tuple(_tree_from_dict(c, leaves) for c in children))
    raise InputFormatError(f"bad access tree node {doc!r}")


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
    if not isinstance(doc, Mapping):
        raise InputFormatError("policy document must be an object")
    raw_partitions = doc.get("provenance_partitions", {})
    if not isinstance(raw_partitions, Mapping):
        raise InputFormatError('"provenance_partitions" must map names to conditions')
    leaves = {str(k): condition_from_dict(v) for k, v in raw_partitions.items()}
    tree_doc = doc.get("access_tree")
    if tree_doc is None:
        if len(leaves) != 1:
            raise InputFormatError('policy needs an "access_tree" unless it has exactly one partition')
        tree: AccessTree = TreeLeaf(next(iter(leaves.values())))
    else:
        tree = _tree_from_dict(tree_doc, leaves)
    subjects = doc.get("subject")
    categories = doc.get("category")
    if subjects is not None and not isinstance(subjects, list):
        raise InputFormatError('"subject" must be an array of role names')
    if categories is not None and not isinstance(categories, list):
        raise InputFormatError('"category" must be an array of category names')
    ap = frozenset(str(p) for p in doc.get("AP", []))
    pp = frozenset(str(p) for p in doc.get("PP", []))
    ptype = doc.get("type")
    if ptype is None:
        ptype = _infer_type(subjects, categories, ap, pp)
    if not isinstance(ptype, int):
        raise InputFormatError('"type" must be an integer 1-4')
    return Policy(
        id=str(doc.get("id", default_id)),
        ptype=ptype,
        tree=tree,
        ap=ap,
        pp=pp,
        subjects=None if subjects is None else frozenset(str(s) for s in subjects),
        categories=None if categories is None else frozenset(str(k) for k in categories),
    )


def request_from_dict(doc: Mapping[str, Any]) -> tuple[Request, PurposeSet | None]:
    """Decode a request document: {subject, category, query_attrs}.

    An optional "attached_purposes" array rides along for CLI use and is
    returned separately; it describes the data record, not the requester.
    """
    if not isinstance(doc, Mapping) or "subject" not in doc:
        raise InputFormatError('request document needs a "subject"')
    category = doc.get("category")
    raw_attrs = doc.get("query_attrs") or {}
    if not isinstance(raw_attrs, Mapping):
        raise InputFormatError('"query_attrs" must be an object')
    request = Request(
        subject=str(doc["subject"]),
        category=None if category is None else str(category),
        query_attrs={str(k): attr_value_from_json(v) for k, v in raw_attrs.items()},
    )
    attached = doc.get("attached_purposes")
    if attached is None:
        return request, None
    if not isinstance(attached, list):
        raise InputFormatError('"attached_purposes" must be an array')
    return request, frozenset(str(p) for p in attached)


def role_order_from_dict(doc: Mapping[str, Any]) -> RoleOrder:
    """Decode {junior: [senior, ...]} into a role order."""
    if not isinstance(doc, Mapping):
        raise InputFormatError("role order document must be an object")
    order: dict[str, frozenset[str]] = {}
    for junior, seniors in doc.items():
        if not isinstance(seniors, list):
            raise InputFormatError(f"role {junior!r} must map to an array of senior roles")
        order[str(junior)] = frozenset(str(s) for s in seniors)
    return order


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc


def load_policy(path: str, default_id: str = "policy") -> Policy:
    return policy_from_dict(_load_json(path), default_id)


def load_request(path: str) -> tuple[Request, PurposeSet | None]:
    return request_from_dict(_load_json(path))


def load_role_order(path: str) -> RoleOrder:
    return role_order_from_dict(_load_json(path))
