"""End-to-end decision pipeline.

A decision runs in four stages:

1. policy-evaluation: every policy of every party is checked against the
   record's provenance graph and the request; applicable policies contribute
   their allowed/prohibited purposes, the rest contribute empty sets. Each
   distinct leaf condition object is evaluated once per decision, however
   many policies and parties share it.
2. internal-merge: each party's per-policy sets, checked in stage 1, are
   merged with the party's expression, each merge cutting at the purpose
   graph's hierarchy line. Without an explicit expression a single policy
   stands as is and several policies are folded left to right with f_dotplus.
3. external-merge: the per-party results are combined by the cross-party
   expression into one decision set.
4. attached-purpose-intersection: when the record carries attached purposes,
   the decision is narrowed to them.

Any domain error is re-raised as a :class:`StageError` naming the stage that
failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from .algebra import FidaExpr, HierarchicalPurposeSet, eval_fida, left_fold_expr, parse_fida, print_fida

# evaluate_policy checks each policy's purposes; this name stays bound for decidebench's tracer.
from .algebra import split_result  # noqa: F401
from .errors import ConfigurationError, MissingHierarchyLineError, ProvPurposeError, StageError
from .external import PartyResult, merge_parties
from .policy import LeafMemo, Policy, PolicyDecision, Request, RoleOrder, evaluate_policy
from .provenance import ProvenanceGraph
from .purposes import PurposeGraph, PurposeSet


@dataclass(frozen=True)
class DataRecord:
    """A stored record: its provenance graph plus decision-relevant metadata."""

    provenance: ProvenanceGraph
    category: str | None = None
    attached_purposes: PurposeSet | None = None


@dataclass(frozen=True)
class PartyConfig:
    """One party's policies and optional merge expression over policy ids.

    `merge_expr` is `internal_expr` parsed, or else the default fold over the
    policy ids, and `merge_text` is its canonical text. Both are derived once,
    on first use; a faulty expression is not kept and raises on every use.
    """

    party: str
    policies: tuple[Policy, ...]
    internal_expr: str | None = None

    @cached_property
    def merge_expr(self) -> FidaExpr:
        if self.internal_expr is not None:
            return parse_fida(self.internal_expr)
        return default_internal_expr([p.id for p in self.policies])

    @cached_property
    def merge_text(self) -> str:
        return print_fida(self.merge_expr)


@dataclass(frozen=True)
class PartyTrace:
    party: str
    internal_expr: str
    decisions: tuple[tuple[str, PolicyDecision], ...]
    result: PartyResult


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
    parties: Sequence[PartyConfig],
    external_expr: str,
    pg: PurposeGraph,
    role_order: RoleOrder | None = None,
) -> DecisionOutcome:
    """Run the full pipeline and return the decision with per-party traces."""
    if not parties:
        raise ConfigurationError("at least one party is required")
    names = [cfg.party for cfg in parties]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"party names must be distinct, got {names}")
    traces: list[PartyTrace] = []
    results: list[PartyResult] = []
    memo: LeafMemo = {}  # shared by every policy of every party, for this decision only
    for cfg in parties:
        try:
            if not cfg.policies:
                raise ConfigurationError(f"party {cfg.party!r} has no policies")
            ids = [p.id for p in cfg.policies]
            if len(set(ids)) != len(ids):
                raise ConfigurationError(f"party {cfg.party!r} has duplicate policy ids")
            pairs = [
                (
                    pol.id,
                    evaluate_policy(
                        pol,
                        record.provenance,
                        request,
                        data_category=record.category,
                        role_order=role_order,
                        purpose_graph=pg,
                        memo=memo,
                    ),
                )
                for pol in cfg.policies
            ]
        except ProvPurposeError as exc:
            raise StageError("policy-evaluation", exc) from exc
        try:
            if pg.hierarchy_line is None:
                raise MissingHierarchyLineError("purpose graph has no hierarchy line")
            env = {pid: HierarchicalPurposeSet(d.ap, d.pp, graph=pg) for pid, d in pairs}
            merged = eval_fida(cfg.merge_expr, env)
            result = PartyResult(cfg.party, merged.ap, merged.pp)
        except ProvPurposeError as exc:
            raise StageError("internal-merge", exc) from exc
        traces.append(PartyTrace(cfg.party, cfg.merge_text, tuple(pairs), result))
        results.append(result)
    try:
        decided = merge_parties(results, external_expr, pg)
    except ProvPurposeError as exc:
        raise StageError("external-merge", exc) from exc
    if record.attached_purposes is not None:
        try:
            pg.check_members(record.attached_purposes)
            decided = decided & record.attached_purposes
        except ProvPurposeError as exc:
            raise StageError("attached-purpose-intersection", exc) from exc
    return DecisionOutcome(
        decided=frozenset(decided),
        parties=tuple(traces),
        external_expr=external_expr.strip(),
        attached_purposes=record.attached_purposes,
    )


def outcome_to_dict(outcome: DecisionOutcome) -> dict[str, Any]:
    """JSON-friendly rendering with sorted purpose lists."""
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
                "party": trace.party,
                "internal": trace.internal_expr,
                "ap": sorted(trace.result.ap),
                "pp": sorted(trace.result.pp),
                "policies": [
                    {
                        "id": pid,
                        "applicable": d.applicable,
                        "guards_ok": d.guards_ok,
                        "tree_value": d.tree_value.label,
                        "ap": sorted(d.ap),
                        "pp": sorted(d.pp),
                    }
                    for pid, d in trace.decisions
                ],
            }
            for trace in outcome.parties
        ],
    }
