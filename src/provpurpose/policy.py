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

Each access tree is compiled once, on its first evaluation, into a flat
post-order program that :func:`algebra._run` runs, as it runs every compiled
program; each leaf is matched at most once per decision. Decisions are
shared, not built per evaluation: an applicable policy returns its own
decision, made once, and every other outcome is one of seven module
constants keyed by tree value and guard result.

Subject guards compare the requester's role with the policy's subjects under
an optional role order (junior -> seniors, reflexive and transitive); without
one, only equal role names match. Category guards treat a data category as
covered by a policy category when it is not empty and occurs inside it (so a
record tagged "assignment" satisfies a policy scoped to "assignments").

Each object here and in :mod:`matching` is the one reader of its own fields,
through the :mod:`_docs` readers. The loaders at the end of this module walk
only a document's shape (objects, arrays, keys, defaults, JSON attribute
values and the ``"*"`` edge wildcard) and hand each field, as it is, to the
constructor; so a policy built in Python is read, and refused, as its
document is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import AbstractSet, Any, Callable, Iterable, Mapping, Union, get_args

from . import _docs
from .algebra import MAX_NESTING, _post_order, _run
from .errors import InputFormatError
from .matching import (
    AtomicCondition,
    AttrCondition,
    AttrConstraint,
    LeafMemo,
    MatchValue,
    NullCondition,
    PathPattern,
    PatternEdge,
    PatternVertex,
    ProvenancePartition,
    QueryCondition,
    TargetCondition,
    VertexCondition,
    _intern,
    eval_atomic,
    match_and,
    match_or,
    match_partition,
    match_path,
    parse_path_pattern,
)
from .provenance import AttrValue, ProvenanceGraph, _attr_value, attr_value_from_json
from .purposes import PurposeSet

LeafCondition = Union[ProvenancePartition, PathPattern, AtomicCondition]
_LEAF_KINDS = get_args(LeafCondition)  # a tuple of classes, which isinstance checks faster than the Union


class TreeOp(str, Enum):
    AND = "AND"
    OR = "OR"


@dataclass(frozen=True)
class TreeLeaf:
    condition: LeafCondition

    def __post_init__(self) -> None:
        if not isinstance(self.condition, _LEAF_KINDS):
            raise InputFormatError(f"access tree leaf {self.condition!r} is not a leaf condition")


@dataclass(frozen=True)
class TreeBranch:
    """An operator, a :class:`TreeOp` or its text, over an array of subtrees stored as a tuple.

    Branches nest at most `MAX_NESTING` levels deep.
    """

    op: TreeOp
    children: tuple["AccessTree", ...]
    depth: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "op", op := _docs.member(TreeOp, self.op, "tree operator"))
        children = _docs.items(self.children, (TreeLeaf, TreeBranch), f"{op.value} children", "access trees")
        object.__setattr__(self, "children", children)
        if not children:
            raise InputFormatError("access tree branch needs at least one child")
        depth = 1 + max((c.depth for c in self.children if isinstance(c, TreeBranch)), default=0)
        if depth > MAX_NESTING:
            raise InputFormatError(f"access tree nests deeper than {MAX_NESTING} levels")
        object.__setattr__(self, "depth", depth)

    @cached_property
    def program(self) -> tuple["TreeStep", ...]:
        """The tree in post-order: leaf conditions, and (arity, match_and | match_or) steps.

        Derived on first evaluation, so only for the trees evaluated whole:
        a policy's root, never the branches nested in it.
        """
        return tuple(_post_order(self, _tree_step))

    @cached_property
    def leaf_fold(self) -> tuple[Callable[[Iterable[MatchValue]], MatchValue], tuple[int, ...]] | None:
        """For a branch over leaves only: its fold, min for AND and max for OR, and its leaves' memo keys.

        None for a branch with a branch among its children. Derived on first
        evaluation, like :attr:`program`.
        """
        if not all(isinstance(c, TreeLeaf) for c in self.children):
            return None
        return (min if self.op is TreeOp.AND else max), tuple([id(c.condition) for c in self.children])


AccessTree = Union[TreeLeaf, TreeBranch]
#: A step of a compiled tree: a leaf condition to look up, or a fold of the last `arity` values.
TreeStep = Union[LeafCondition, tuple[int, Callable[..., MatchValue]]]

# Looking up an enum member costs a call on Python 3.11; _FULL is read per policy and decision.
_FULL, _AND = MatchValue.FULL, TreeOp.AND


def _tree_step(node: AccessTree) -> tuple[TreeStep, tuple[AccessTree, ...]]:
    """A node's step in its tree's program, and its children."""
    if isinstance(node, TreeLeaf):
        return node.condition, ()
    return (len(node.children), match_and if node.op is _AND else match_or), node.children


def eval_access_tree(
    tree: AccessTree,
    graph: ProvenanceGraph,
    query_attrs: Mapping[str, AttrValue] | None = None,
    memo: LeafMemo | None = None,
) -> MatchValue:
    """Evaluate a tree bottom-up; AND is min, OR is max over the chain.

    A branch over leaves alone whose leaves are all in `memo` is folded by
    one call (:attr:`TreeBranch.leaf_fold`); any other runs its compiled
    :attr:`TreeBranch.program` in :func:`algebra._run`, with no recursion,
    reading each leaf through :func:`_match_leaf`. Each leaf condition
    object is evaluated once per `memo`, in the tree's left-to-right order;
    a call without one gets a fresh memo, which also holds the coarser
    partitions matched for the leaves' lower levels. A memo is only valid
    for one graph and one set of query attributes, so it must not outlive
    the decision it was made for.
    """
    if memo is None:
        memo = {}
    if isinstance(tree, TreeLeaf):
        return _match_leaf(tree.condition, graph, query_attrs, memo)
    flat = tree.leaf_fold
    if flat is not None:
        combine, keys = flat
        try:
            return combine(map(memo.__getitem__, keys))
        except KeyError:
            pass  # a leaf not matched yet: the program matches them in order
    return _run(tree.program, lambda cond: _match_leaf(cond, graph, query_attrs, memo))


def _tree_leaves(tree: AccessTree) -> tuple[LeafCondition, ...]:
    """A tree's leaf conditions, in the order :func:`eval_access_tree` matches them."""
    if isinstance(tree, TreeLeaf):
        return (tree.condition,)
    return tuple([step for step in tree.program if type(step) is not tuple])


def _match_leaf(
    cond: LeafCondition, graph: ProvenanceGraph, query_attrs: Mapping[str, AttrValue] | None, memo: LeafMemo
) -> MatchValue:
    """One leaf's value in `memo`, matched and recorded there if it is not yet.

    The one reader of a leaf's memo entry. The matchers are this module's
    globals, looked up on every call, so a rebound matcher takes effect at
    once.
    """
    value = memo.get(id(cond))
    if value is not None:
        return value
    if isinstance(cond, ProvenancePartition):
        value = match_partition(cond, graph, memo)
    elif isinstance(cond, PathPattern):
        value = match_path(cond, graph)
    else:
        value = eval_atomic(cond, graph, query_attrs, memo)
    memo[id(cond)] = value
    return value


# -- policies -------------------------------------------------------------------

@dataclass(frozen=True)
class Policy:
    """A policy, its fields read as :func:`policy_from_dict` reads them.

    The guards, then AP and PP, are read as :func:`_docs.names` reads an
    array of names, a guard of None being absent; then `id` as
    :func:`_docs.text` reads a scalar and `ptype` as an integer. Anything
    else raises :class:`InputFormatError`, as does a type whose rule the
    other fields break.
    """

    id: str
    ptype: int
    tree: AccessTree
    ap: PurposeSet = frozenset()
    pp: PurposeSet = frozenset()
    subjects: frozenset[str] | None = None
    categories: frozenset[str] | None = None

    def __post_init__(self) -> None:
        subjects, categories = self.subjects, self.categories
        object.__setattr__(self, "subjects", None if subjects is None else _docs.names(subjects, '"subject"'))
        object.__setattr__(self, "categories", None if categories is None else _docs.names(categories, '"category"'))
        object.__setattr__(self, "ap", _docs.names(self.ap, '"AP"'))
        object.__setattr__(self, "pp", _docs.names(self.pp, '"PP"'))
        object.__setattr__(self, "id", _docs.text(self.id, 'policy "id"'))
        object.__setattr__(self, "ptype", _docs.integer(self.ptype, '"type"'))
        if not isinstance(self.tree, (TreeLeaf, TreeBranch)):
            raise InputFormatError(f"policy {self.id!r}: tree {self.tree!r} is not an access tree")
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

    @cached_property
    def applied(self) -> "PolicyDecision":
        """The decision this policy yields wherever it applies: its AP and PP on a FULL match."""
        return PolicyDecision(True, self.ap, self.pp, _FULL, True)


@dataclass(frozen=True)
class Request:
    """A request; `subject`, and `category` unless it is None, are read as :func:`_docs.text` reads a scalar.

    `query_attrs` is a mapping, stored as a fresh dict: each name is read as
    :func:`_docs.text` reads a query condition's attribute, and each value
    as a decoded attribute value (a str, an int that is not a bool, or a
    datetime).
    """

    subject: str
    category: str | None = None
    query_attrs: Mapping[str, AttrValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "subject", _docs.text(self.subject, 'request "subject"'))
        category = None if self.category is None else _docs.text(self.category, 'request "category"')
        object.__setattr__(self, "category", category)
        attrs = _docs.obj(self.query_attrs, '"query_attrs"').items()
        object.__setattr__(self, "query_attrs", {_docs.text(k, "query attribute"): _attr_value(v) for k, v in attrs})


@dataclass(frozen=True)
class PolicyDecision:
    applicable: bool
    ap: PurposeSet
    pp: PurposeSet
    tree_value: MatchValue
    guards_ok: bool

    @cached_property
    def _row(self) -> tuple[bool, bool, str, tuple[str, ...], tuple[str, ...]]:
        """What a trace rendering reads: applicable, guards_ok, the tree value's label, sorted AP, sorted PP.

        Derived on first read and kept. Decisions are shared, one per policy
        and seven declined ones, so a rendering sorts each set once, not once
        per policy and read.
        """
        return self.applicable, self.guards_ok, self.tree_value.label, tuple(sorted(self.ap)), tuple(sorted(self.pp))


#: The decision of every policy that does not apply, one per (tree value, guards passed).
#: (FULL, True) is absent: that policy applies and returns its own `Policy.applied`.
_DECLINED: dict[tuple[MatchValue, bool], PolicyDecision] = {
    (value, ok): PolicyDecision(False, frozenset(), frozenset(), value, ok)
    for value in MatchValue
    for ok in (False, True)
    if not (ok and value is _FULL)
}


RoleOrder = Mapping[str, frozenset[str]]


def _reach(role: str, order: RoleOrder | None) -> set[str]:
    """Every role that covers `role` under `order`, `role` itself included.

    The order is read as :func:`role_order_from_dict` reads its document,
    in its words, but only the entries the walk reaches: each list of
    seniors as :func:`_docs.names` reads names, so a string is refused,
    not read as its characters.
    """
    seen = {role}
    if order is None:
        return seen
    order = _docs.obj(order, "role order document")
    stack = [role]
    while stack:
        junior = stack.pop()
        if junior in order:
            for senior in _docs.names(order[junior], f"senior roles of {junior!r}") - seen:
                seen.add(senior)
                stack.append(senior)
    return seen


def role_leq(junior: str, senior: str, order: RoleOrder | None = None) -> bool:
    """True when `junior` is covered by `senior` under the role order."""
    return senior in _reach(junior, order)


def category_covered(data_category: str, policy_category: str) -> bool:
    return bool(data_category) and data_category in policy_category


def guards_pass(
    policy: Policy,
    request: Request,
    data_category: str | None,
    role_order: RoleOrder | None = None,
    reach: AbstractSet[str] | None = None,
) -> bool:
    """Subject and category guards; absent guards always pass.

    The role order is walked once from the requester, not once per subject.
    `reach`, when given, is that walk's result: every role the requester's
    role is covered by, itself included. A caller deciding many policies for
    one request walks the order once and passes it to each.
    """
    if policy.subjects is not None:
        if reach is None:
            reach = _reach(request.subject, role_order)
        if policy.subjects.isdisjoint(reach):
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
    memo: LeafMemo | None = None,
    reach: AbstractSet[str] | None = None,
) -> PolicyDecision:
    """Decide whether a policy applies and which purposes it releases.

    Purposes are released only on a FULL tree match with passing guards;
    otherwise both sets come back empty and the trace fields say why. A
    party's plan, not this, checks the policy's purposes.
    No decision is built here: an applicable policy returns its own
    :attr:`Policy.applied`, made once per policy, and every other outcome is
    one of seven shared decisions, one per (tree value, guards passed).
    `memo` is handed to :func:`eval_access_tree`; policies decided against
    the same graph and request may share one. `reach` is handed to
    :func:`guards_pass`; policies decided for the same request and role
    order may share it, and then `role_order` is not read.
    """
    guards_ok = guards_pass(policy, request, data_category, role_order, reach)
    tree_value = eval_access_tree(policy.tree, graph, request.query_attrs, memo)
    if guards_ok and tree_value is _FULL:
        return policy.applied
    return _DECLINED[tree_value, guards_ok]


# -- document loading -----------------------------------------------------------

def _constraint(doc: Any) -> AttrConstraint:
    item, op, value = _docs.entry(doc, 3, "attribute constraint")
    return AttrConstraint(item, op, attr_value_from_json(value))


def _partition_from_dict(doc: Any) -> ProvenancePartition:
    doc = _docs.obj(doc, "partition")
    vertices = []
    for entry in _docs.array(doc.get("vertices", []), "partition vertices"):
        try:
            ref, vtype, name = entry["ref"], entry["type"], entry.get("name")
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"partition vertex {entry!r} needs ref/type") from exc
        constraints = tuple(map(_constraint, _docs.array(entry.get("attrs", []), '"attrs"')))
        vertices.append(PatternVertex(ref, vtype, name, constraints))
    edges = []
    for entry in _docs.array(doc.get("edges", []), "partition edges"):
        src, dst, label = _docs.entry(entry, 3, "partition edge")
        if label is None:  # a document's wildcard is "*": null, a pattern edge's wildcard, labels nothing
            raise InputFormatError("unknown edge label None")
        edges.append(PatternEdge(src, dst, None if label == "*" else label))
    return ProvenancePartition(tuple(vertices), tuple(edges))


def condition_from_dict(doc: Mapping[str, Any]) -> LeafCondition:
    """Decode one leaf condition; equal conditions decode to one shared object.

    Sharing is what lets a decision evaluate each distinct leaf once (see
    :func:`eval_access_tree`). The object is `matching`'s one of its value,
    so a decoded partition is also every finer one's coarser partition.
    """
    return _intern(_decode_condition(doc))


def _decode_condition(doc: Mapping[str, Any]) -> LeafCondition:
    if len(_docs.obj(doc, "condition")) != 1:
        raise InputFormatError(f"condition {doc!r} must have exactly one kind key")
    kind, value = next(iter(doc.items()))
    if kind == "path":
        return parse_path_pattern(value)
    if kind == "target":
        return TargetCondition(value)
    if kind == "partition":
        return _partition_from_dict(value)
    if kind == "null":
        return NullCondition()
    if kind == "vertex":
        return VertexCondition(*_docs.entry(value, 2, "vertex condition"))
    if kind == "attr":
        vtype, name, item, op, operand = _docs.entry(value, 5, "attr condition")
        return AttrCondition(vtype, name, item, op, attr_value_from_json(operand))
    if kind == "query":
        return QueryCondition(*_docs.entry(value, 4, "query condition"))
    raise InputFormatError(f"unknown condition kind {kind!r}")


def _tree_from_dict(doc: Any, leaves: Mapping[str, LeafCondition], depth: int = 1) -> AccessTree:
    """Decode a tree; its operator nodes nest at most `MAX_NESTING` levels deep.

    The bound is checked on the way down, before any branch exists, so a
    deeper document never drives the decoder's recursion past it.
    """
    if isinstance(doc, str):
        if doc not in leaves:
            raise InputFormatError(f"access tree references unknown partition {doc!r}")
        return TreeLeaf(leaves[doc])
    if depth > MAX_NESTING:
        raise InputFormatError(f"access tree nests deeper than {MAX_NESTING} levels")
    if len(_docs.obj(doc, "access tree node")) != 1:
        raise InputFormatError(f"access tree node {doc!r} must have exactly one operator")
    op, children = next(iter(doc.items()))
    children = _docs.array(children, f"{op} children")
    return TreeBranch(op, tuple([_tree_from_dict(c, leaves, depth + 1) for c in children]))


def _infer_type(subjects: Any, categories: Any, ap: Any, pp: Any) -> int:
    if subjects is not None or categories is not None:
        return 4
    return 3 if ap and pp else 2 if pp else 1


def policy_from_dict(doc: Mapping[str, Any], default_id: str = "policy") -> Policy:
    """Decode a policy document.

    Expected fields: subject, category, provenance_partitions, access_tree,
    AP, PP, plus optional id (a string or number; null is absent) and type.
    Without an access_tree, the policy's one partition is its tree. The
    fields are read by :class:`Policy`; a null guard is absent, and a null
    id or type is `default_id` or the type inferred from the fields.
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
    subjects, categories, ap, pp = doc.get("subject"), doc.get("category"), doc.get("AP", []), doc.get("PP", [])
    ptype, pid = doc.get("type"), doc.get("id")
    return Policy(
        id=default_id if pid is None else pid,
        ptype=_infer_type(subjects, categories, ap, pp) if ptype is None else ptype,
        tree=tree,
        ap=ap,
        pp=pp,
        subjects=subjects,
        categories=categories,
    )


def request_from_dict(doc: Mapping[str, Any]) -> tuple[Request, PurposeSet | None]:
    """Decode a request document: {subject, category?, query_attrs?}.

    Subject and category are strings or numbers; a null category is absent.
    An optional "attached_purposes" array rides along for CLI use and is
    returned separately; it describes the data record, not the requester.
    """
    if "subject" not in _docs.obj(doc, "request document"):
        raise InputFormatError('request document needs a "subject"')
    raw_attrs = doc.get("query_attrs")
    raw_attrs = _docs.obj({} if raw_attrs is None else raw_attrs, '"query_attrs"')
    request = Request(doc["subject"], doc.get("category"), {k: attr_value_from_json(v) for k, v in raw_attrs.items()})
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
