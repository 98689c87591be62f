"""End-to-end decision pipeline.

A decision runs in four stages:

1. policy-evaluation: once a party's plan has checked that the party has
   policies, that their ids are distinct and that all their purposes are in
   the purpose graph, every policy is checked against the record's
   provenance graph and the request; applicable policies contribute their
   allowed/prohibited purposes, the rest contribute empty sets. A policy's
   outcome depends only on its shape: its access tree, compared by value,
   and its subject and category guards. A shape's outcome depends only on
   whether its guards pass and on its tree's value, a fold of its leaf
   values. Each decision first matches the party's distinct leaf conditions
   in the order the shapes' trees would match them. Each distinct leaf
   condition object is matched once per decision, however many policies and
   parties share it, and so is each coarser partition that gives a
   partition its lower levels. A party's constrained partition leaves that
   share one coarser partition form a group, compiled once per party into a
   bit-parallel grader and matched as one step of the leaf pass, at its
   first leaf's place, by :func:`~provpurpose.matching.match_group`, which
   always answers: where the coarser's embeddings take too many steps, it
   matches the group's leaves alone at that step, in leaf order, and packs
   them the same way. A leaf can only fault by giving up its search, with
   one message, and every leaf of a party is matched, so a party raises
   the error it would raise if every policy were evaluated in order. The
   requester's role order is walked once per decision. A subject guard
   reads only the roles of that walk's reach that some guard of the party
   names, and a category guard only the record's category; so the plan
   maps those roles and the category to the party's guard mask, bit s set
   when shape s's guards pass, and maps the guard mask and the packed leaf
   values to the shape outcomes and the applicability vector (bit i set
   when policy i applies). A key met
   before, by this requester or by another whose named roles give the same
   guard mask, runs no guard check and no tree. On a miss the groups' leaf
   values are stored in the leaf memo, then each shape whose
   guards pass is evaluated by its first policy, in order of first
   appearance; a shape whose guards fail cannot apply, so only its tree is
   folded from the matched leaves, for the trace. The applicability vector
   is the OR of the policy masks of the shapes that apply. A record category
   that is neither a string nor None, and a list of seniors that the role
   walk meets and the role order loader would refuse, fail this stage
   before any party is evaluated. The trace derives the per-policy
   decisions from the shape outcomes when first read.
2. internal-merge: each party's per-policy sets are merged by the party's
   expression, each merge cutting at the purpose graph's hierarchy line.
   Without an explicit expression a single policy stands as is and several
   policies are folded left to right with f_dotplus. The expression is
   compiled once per party against its policy ids, and runs over the
   applicable policies' purpose bit masks, encoded once in the plan; the
   default fold is one merge step per policy after the first. Given the
   plan, the result depends only on the applicability vector, so the plan
   maps that vector to the result masks and their decoded
   :class:`PartyResult`: a vector met before is answered from the map,
   with no per-policy step, no run and no decode. Each map the plan keeps
   is a :class:`~provpurpose.purposes._BoundedMap`.
3. external-merge: the per-party results are combined by the cross-party
   expression into one decision set. The expression's program, compiled
   once per text and party names, runs over each party's result masks, and
   only the decided mask is decoded; each party's trace holds its result
   decoded. The compiled program owns one bounded map per purpose graph,
   weakly keyed, from the tuple of the parties' result masks in slot order
   to the decided set: a tuple met before is answered from the map, with
   no run and no decode.
4. attached-purpose-intersection: when the record carries attached purposes,
   they are read once, into a frozenset that the outcome keeps, and the
   decision is narrowed to them.

Any domain error is re-raised as a :class:`StageError` naming the stage that
failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Any, Iterable, NamedTuple, Sequence
from weakref import WeakKeyDictionary

from . import _docs
from .algebra import FidaExpr, MergeProgram, compile_fida, eval_fida, left_fold_expr, parse_fida, print_fida

# decide calls no split_result, as party plans check purposes; the name stays bound for decidebench's tracer.
from .algebra import split_result  # noqa: F401
from .errors import ConfigurationError, InputFormatError, MissingHierarchyLineError, ProvPurposeError, StageError
from .external import PartyResult, merge_parties, party_result_to_dict
from .matching import _Grader, match_group, partition_groups
from . import policy
from .policy import LeafCondition, LeafMemo, Policy, PolicyDecision, Request, RoleOrder
from .policy import _DECLINED, _match_leaf, _reach, _tree_leaves, evaluate_policy
from .provenance import ProvenanceGraph
from .purposes import PurposeGraph, PurposeSet, _BoundedMap, _named


@dataclass(frozen=True)
class DataRecord:
    """A stored record: its provenance graph plus decision-relevant metadata."""

    provenance: ProvenanceGraph
    category: str | None = None
    attached_purposes: PurposeSet | None = None


class _PartyPlan(NamedTuple):
    """One party's plan under one purpose graph.

    `masks` holds every policy's (allowed, prohibited) masks under the
    graph's bits, in policy order. `guards` maps the roles of the
    requester's reach that the party's guards name, with the record's
    category, to the guard mask, bit s set when shape s's guards pass.
    `outcomes` maps a guard mask and the party's leaf values, packed 2 bits
    each and a group's as :func:`~provpurpose.matching.match_group` packs
    them, whether graded or matched alone, to the shape outcomes and the
    applicability vector, whose bit i is set when policy i applies.
    `merged` maps an applicability vector to its merge result: the result
    masks and the decoded :class:`PartyResult`. Each map is a
    :class:`~provpurpose.purposes._BoundedMap`, and none holds the graph,
    so the plan never keeps it alive. Guards raise nothing, so a guard mask
    is stored before any leaf is matched; a party whose leaves raise stores
    nothing more.
    """

    masks: tuple[tuple[int, int], ...]
    guards: _BoundedMap[tuple[frozenset[str], str | None], int]
    outcomes: _BoundedMap[tuple[int, int], tuple[tuple[PolicyDecision, ...], int]]
    merged: _BoundedMap[int, tuple[int, int, PartyResult]]


@dataclass(frozen=True)
class PartyConfig:
    """One party's policies and optional merge expression over policy ids.

    `merge_expr` is `internal_expr` parsed, or else the default fold over the
    policy ids; `merge_text` is its canonical text and `merge_program` its
    compiled form, with one operand slot per policy in policy order.
    `_shapes` groups the policies by (tree, subjects, categories), trees
    compared by value: each shape's first policy, in order of first
    appearance, each policy's shape index, and each shape's mask of its
    policies. `_steps` is the leaf pass that
    :func:`~provpurpose.matching.partition_groups` forms over the distinct
    leaf condition objects of those first policies' trees, in the order the
    trees match them: each leaf in no group, and each group, compiled into
    a grader, at its first leaf's place. `_settled` holds each group step
    with the shift of its bits in the packed leaf values. `_subjects` lists
    the subjects their guards name, and `_guarded` derives a request's
    guard mask. Per purpose graph a plan checks that the party has
    policies, that their ids are distinct and that `pg` holds all their
    purposes, then keeps their (allowed, prohibited) masks under
    ``pg.bits``, which `masks(pg)` returns, and three bounded maps (see
    :class:`_PartyPlan`). Each is derived once, on first use; a fault is
    not kept and raises on every use. The fields are read as a policy
    file's: `party` as :func:`_docs.party` reads a name, `policies` as an
    array of :class:`Policy`, stored as a tuple, and `internal_expr` as a
    string or None.
    """

    party: str
    policies: tuple[Policy, ...]
    internal_expr: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "party", _docs.party(self.party))
        object.__setattr__(self, "policies", _docs.items(self.policies, Policy, '"policies"', "policies"))
        if self.internal_expr is not None and not isinstance(self.internal_expr, str):
            raise InputFormatError("internal_expr must be a string")

    @cached_property
    def merge_expr(self) -> FidaExpr:
        if self.internal_expr is not None:
            return parse_fida(self.internal_expr)
        return default_internal_expr([p.id for p in self.policies])

    @cached_property
    def merge_text(self) -> str:
        return print_fida(self.merge_expr)

    @cached_property
    def merge_program(self) -> MergeProgram:
        return compile_fida(self.merge_expr, [p.id for p in self.policies])

    @cached_property
    def _shapes(self) -> tuple[tuple[Policy, ...], tuple[int, ...], tuple[int, ...]]:
        index: dict[tuple[Any, ...], int] = {}  # shape -> its index, in order of first appearance
        shape_of = tuple(index.setdefault((p.tree, p.subjects, p.categories), len(index)) for p in self.policies)
        members = [0] * len(index)
        for i, s in enumerate(shape_of):
            members[s] |= 1 << i
        # a shape's lowest bit is its first policy
        return tuple(self.policies[(m & -m).bit_length() - 1] for m in members), shape_of, tuple(members)

    @cached_property
    def _steps(self) -> tuple[LeafCondition | _Grader, ...]:
        # each leaf object once, in the order the shapes' trees match them
        return partition_groups({id(cond): cond for rep in self._shapes[0] for cond in _tree_leaves(rep.tree)}.values())

    @cached_property
    def _settled(self) -> tuple[tuple[_Grader, int], ...]:
        shift, found = 0, []
        for step in reversed(self._steps):
            grouped = type(step) is _Grader
            if grouped:
                found.append((step, shift))
            shift += step.width if grouped else 2
        return tuple(found)

    @cached_property
    def _subjects(self) -> frozenset[str]:
        return frozenset().union(*[rep.subjects for rep in self._shapes[0] if rep.subjects is not None])

    def _guarded(self, request: Request, category: str | None, reach: AbstractSet[str]) -> int:
        """A request's guard mask: bit s set when shape s's guards pass."""
        passes = policy.guards_pass  # the module's, so a check rebound there runs
        return sum([1 << s for s, rep in enumerate(self._shapes[0]) if passes(rep, request, category, reach=reach)])

    @cached_property
    def _plans(self) -> WeakKeyDictionary[PurposeGraph, _PartyPlan]:
        return WeakKeyDictionary()  # a plan lives as long as its graph

    def _plan(self, pg: PurposeGraph) -> _PartyPlan:
        plan = self._plans.get(pg)
        if plan is None:
            if not self.policies:
                raise ConfigurationError(f"party {self.party!r} has no policies")
            ids = [p.id for p in self.policies]
            if len(set(ids)) != len(ids):
                raise ConfigurationError(f"party {self.party!r} has duplicate policy ids")
            known = pg.purposes
            for pol in self.policies:
                if not (pol.ap <= known and pol.pp <= known):
                    unknown = _named(pol.ap | pol.pp, known)
                    raise ConfigurationError(f"policy {pol.id!r} uses purpose {unknown!r} not in the purpose graph")
            bits = pg.bits
            masks = tuple((bits.encode(pol.ap), bits.encode(pol.pp)) for pol in self.policies)
            plan = self._plans[pg] = _PartyPlan(masks, _BoundedMap(), _BoundedMap(), _BoundedMap())
        return plan

    def __reduce__(self) -> tuple[Any, ...]:
        # a trace holds its config, so outcomes pickle; weakly keyed plans cannot, and are derived again
        return PartyConfig, (self.party, self.policies, self.internal_expr)

    def masks(self, pg: PurposeGraph) -> tuple[tuple[int, int], ...]:
        return self._plan(pg).masks


@dataclass(frozen=True)
class PartyTrace:
    """One party's share of a decision.

    `outcomes` holds the decision of each of `config`'s shapes, in shape
    order. `decisions`, built from them on first read and touching no graph,
    pairs each policy id with the policy's :attr:`Policy.applied` where its
    shape applies, else with its shape's shared declined decision.
    """

    party: str
    internal_expr: str
    result: PartyResult
    config: PartyConfig = field(repr=False)
    outcomes: tuple[PolicyDecision, ...]

    @cached_property
    def decisions(self) -> tuple[tuple[str, PolicyDecision], ...]:
        outcomes = self.outcomes
        return tuple([
            (pol.id, pol.applied if outcomes[s].applicable else outcomes[s])
            for pol, s in zip(self.config.policies, self.config._shapes[1])
        ])


@dataclass(frozen=True)
class DecisionOutcome:
    decided: PurposeSet
    parties: tuple[PartyTrace, ...]
    external_expr: str
    attached_purposes: PurposeSet | None


def default_internal_expr(policy_ids: Sequence[str]) -> FidaExpr:
    """Identity for one policy, left f_dotplus fold for several."""
    if not policy_ids:
        raise ConfigurationError("a party needs at least one policy")
    return left_fold_expr("f_dotplus", policy_ids)


def decide(
    record: DataRecord,
    request: Request,
    parties: Iterable[PartyConfig],
    external_expr: str,
    pg: PurposeGraph,
    role_order: RoleOrder | None = None,
) -> DecisionOutcome:
    """Run the full pipeline and return the decision with per-party traces.

    `parties` is read once, so it may be a one-shot iterable; each member
    must be a :class:`PartyConfig`, and `external_expr` a string.
    """
    if type(parties) is not tuple:  # a tuple is read as it is, with no copy and no ABC check
        parties = tuple(parties) if isinstance(parties, Iterable) else (parties,)
    if not parties:
        raise ConfigurationError("at least one party is required")
    names = [cfg.party for cfg in parties if isinstance(cfg, PartyConfig)]
    if len(names) != len(parties):
        raise ConfigurationError(f"parties must be PartyConfig objects, got {parties!r}")
    if not isinstance(external_expr, str):
        raise ConfigurationError(f"the cross-party expression must be a string, got {external_expr!r}")
    if len(set(names)) != len(names):
        raise ConfigurationError(f"party names must be distinct, got {names}")
    traces: list[PartyTrace] = []
    results: dict[str, tuple[int, int]] = {}  # each party's result masks under pg.bits
    memo: LeafMemo = {}  # shared by every policy of every party, for this decision only
    graph, query_attrs, category = record.provenance, request.query_attrs, record.category
    try:
        reach = _reach(request.subject, role_order)
        if category is not None and not isinstance(category, str):
            raise InputFormatError(f"record category must be a string or None, got {category!r}")
    except InputFormatError as exc:
        raise StageError("policy-evaluation", exc) from exc
    for cfg in parties:
        try:
            plan = cfg._plan(pg)
            asked = cfg._subjects & reach, category  # all the party's guards read
            mask = plan.guards.get(asked)
            if mask is None:
                mask = plan.guards.keep(asked, cfg._guarded(request, category, reach))
            leaves = 0
            for step in cfg._steps:  # 2 bits per leaf, a group's as match_group packs them
                if type(step) is _Grader:
                    leaves = leaves << step.width | match_group(step, graph, memo)
                else:
                    leaves = leaves << 2 | _match_leaf(step, graph, query_attrs, memo)
            key = mask, leaves  # all the party's guards and trees read
            shaped = plan.outcomes.get(key)
            if shaped is None:
                for group, shift in cfg._settled:  # the trees read each leaf's value from the memo
                    group.settle(leaves >> shift, memo)
                reps, _, members = cfg._shapes
                tree_value = policy.eval_access_tree  # the module's, as evaluate_policy reads it
                outcomes = tuple([
                    evaluate_policy(rep, graph, request, data_category=category, memo=memo, reach=reach)
                    if mask >> s & 1
                    else _DECLINED[tree_value(rep.tree, graph, query_attrs, memo), False]
                    for s, rep in enumerate(reps)
                ])
                # disjoint masks: the sum is their OR
                shaped = plan.outcomes.keep(key, (outcomes, sum([m for d, m in zip(outcomes, members) if d.applicable])))
        except ProvPurposeError as exc:
            raise StageError("policy-evaluation", exc) from exc
        outcomes, applicable = shaped
        merged = plan.merged.get(applicable)
        if merged is None:
            try:
                if pg.hierarchy_line is None:
                    raise MissingHierarchyLineError("purpose graph has no hierarchy line")
                applied = [m if applicable >> i & 1 else (0, 0) for i, m in enumerate(plan.masks)]
                ap, pp = eval_fida(cfg.merge_program, applied, pg)
            except ProvPurposeError as exc:
                raise StageError("internal-merge", exc) from exc
            merged = plan.merged.keep(applicable, (ap, pp, PartyResult(cfg.party, pg.bits.decode(ap), pg.bits.decode(pp))))
        ap, pp, result = merged
        results[cfg.party] = ap, pp
        traces.append(PartyTrace(cfg.party, cfg.merge_text, result, cfg, outcomes))
    try:
        decided = merge_parties(results, external_expr, pg)
    except ProvPurposeError as exc:
        raise StageError("external-merge", exc) from exc
    attached = record.attached_purposes
    if attached is not None:
        try:
            attached = pg.check_members(attached)  # read once, even if one-shot
        except ProvPurposeError as exc:
            raise StageError("attached-purpose-intersection", exc) from exc
        decided = decided & attached
    return DecisionOutcome(
        decided=frozenset(decided),
        parties=tuple(traces),
        external_expr=external_expr.strip(),
        attached_purposes=attached,
    )


def outcome_to_dict(outcome: DecisionOutcome) -> dict[str, Any]:
    """JSON-friendly rendering with sorted purpose lists.

    Every list is fresh, so a caller may change it. Each policy's row is read
    from its shared decision's :attr:`~PolicyDecision._row`, sorted once.
    """
    return {
        "decided": sorted(outcome.decided),
        "external": outcome.external_expr,
        "attached_purposes": (
            sorted(outcome.attached_purposes)
            if outcome.attached_purposes is not None
            else None
        ),
        "parties": [
            {
                **party_result_to_dict(trace.result),
                "internal": trace.internal_expr,
                "policies": [
                    {"id": pid, "applicable": ok, "guards_ok": guards_ok, "tree_value": label, "ap": [*ap], "pp": [*pp]}
                    for pid, d in trace.decisions
                    for ok, guards_ok, label, ap, pp in (d._row,)
                ],
            }
            for trace in outcome.parties
        ],
    }
