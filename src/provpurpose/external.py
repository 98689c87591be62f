"""Cross-party merging of per-party evaluation results.

Each party's policy evaluation ends in a :class:`PartyResult`: the purposes
it would allow (`ap`) and the purposes it prohibits (`pp`), as plain sets.
Eight named functions combine two parties into one decision set, always with
the same shape: combine the allowed sides, combine the prohibited sides,
subtract the second from the first.

========  ==============  ==============
function  allowed parts   prohibited parts
========  ==============  ==============
F1        ``+``           ``&``
F2        ``+``           ``-``
F3        ``&``           ``&``
F4        ``&``           ``-``
F5        ``^-``          ``downmin``
F6        ``^-``          ``upmax``
F7        ``upmax``       ``^-``
F8        ``downmin``     ``&``
========  ==============  ==============

F5 through F8 rank whole operands against each other and therefore need a
purpose graph. Inside these merges an empty operand simply loses the
comparison, so parties that prohibit nothing never block a decision.

`merge_parties` accepts either a bare function name, which folds all parties
left to right in their listed order, or a full expression naming parties
(party names must be distinct in both cases)::

    F4(hospital, registry) + F3(hospital, lab)

A function application yields a decision set, which participates in any
surrounding expression as a synthetic party that prohibits nothing. A party
name appearing under an infix operator contributes its intended view,
allowed minus prohibited.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Mapping, Sequence

from . import _docs
from .algebra import BasicOp, FidaExpr, _binding, apply_basic, fold, left_fold_expr, op_subtraction, parse_fida

# F5-F8 rank through apply_basic; this name stays bound for decidebench's tracer.
from .algebra import precedence_total  # noqa: F401
from .errors import (
    ConfigurationError,
    EmptyPurposeSetError,
    FidaSyntaxError,
    UnboundNameError,
)
from .purposes import PurposeGraph, PurposeSet


@dataclass(frozen=True)
class PartyResult:
    """One party's allowed and prohibited purposes after policy evaluation."""

    party: str
    ap: PurposeSet = frozenset()
    pp: PurposeSet = frozenset()

    def intended(self) -> PurposeSet:
        """The view a party contributes on its own: allowed minus prohibited."""
        return op_subtraction(self.ap, self.pp)


class ExternalFunction(Enum):
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"
    F5 = "F5"
    F6 = "F6"
    F7 = "F7"
    F8 = "F8"


# (allowed-side op, prohibited-side op); see the module table.
_PARTY_RULES: dict[ExternalFunction, tuple[BasicOp, BasicOp]] = {
    ExternalFunction.F1: (BasicOp.UNION, BasicOp.INTERSECT),
    ExternalFunction.F2: (BasicOp.UNION, BasicOp.SUBTRACT),
    ExternalFunction.F3: (BasicOp.INTERSECT, BasicOp.INTERSECT),
    ExternalFunction.F4: (BasicOp.INTERSECT, BasicOp.SUBTRACT),
    ExternalFunction.F5: (BasicOp.SYM_DIFF, BasicOp.LOW_MIN),
    ExternalFunction.F6: (BasicOp.SYM_DIFF, BasicOp.HIGH_MAX),
    ExternalFunction.F7: (BasicOp.HIGH_MAX, BasicOp.SYM_DIFF),
    ExternalFunction.F8: (BasicOp.LOW_MIN, BasicOp.INTERSECT),
}

_EXTERNAL_BY_TOKEN = {fn.value: fn for fn in ExternalFunction}


def apply_external(
    fn: ExternalFunction,
    sm: PartyResult,
    sn: PartyResult,
    pg: PurposeGraph | None = None,
) -> PurposeSet:
    """Combine two party results into one decision set."""
    ap_op, pp_op = _PARTY_RULES[fn]
    allowed = apply_basic(ap_op, sm.ap, sn.ap, pg)
    prohibited = apply_basic(pp_op, sm.pp, sn.pp, pg)
    return op_subtraction(allowed, prohibited)


@lru_cache(maxsize=64)
def _party_expr(text: str, names: tuple[str, ...]) -> FidaExpr:
    """The expression of a stripped text over the named parties; a faulty text is not kept."""
    return left_fold_expr(text, names) if text in _EXTERNAL_BY_TOKEN else parse_fida(text)


def merge_parties(
    results: Sequence[PartyResult],
    expr_text: str,
    pg: PurposeGraph | None = None,
) -> PurposeSet:
    """Merge party results into the final decision set.

    A bare function name ("F3") folds all parties left to right. Anything
    else is parsed as an expression whose set names refer to parties. Either
    way the party names must be distinct.
    """
    if not results:
        raise EmptyPurposeSetError("no party results to merge")
    env = {r.party: r for r in results}
    if len(env) != len(results):
        raise ConfigurationError("party names must be distinct to merge")
    expr = _party_expr(expr_text.strip(), tuple(env))

    def call(name: str, args: list[PartyResult]) -> PartyResult:
        fn = _EXTERNAL_BY_TOKEN.get(name)
        if fn is None:
            raise UnboundNameError(f"unknown cross-party function {name!r}")
        if len(args) != 2:
            raise FidaSyntaxError(f"{name} takes exactly two operands")
        return PartyResult("", apply_external(fn, args[0], args[1], pg), frozenset())

    def infix(op: BasicOp, l: PartyResult, r: PartyResult) -> PartyResult:
        return PartyResult("", apply_basic(op, l.intended(), r.intended(), pg), frozenset())

    return fold(expr, _binding(env, "party named"), call, infix).intended()


def party_result_from_dict(doc: Mapping[str, Any], default_party: str = "party") -> PartyResult:
    doc = _docs.obj(doc, "party result")
    return PartyResult(
        _docs.party(doc, default_party),
        _docs.names(doc.get("ap", []), '"ap"'),
        _docs.names(doc.get("pp", []), '"pp"'),
    )


def party_result_to_dict(result: PartyResult) -> dict[str, Any]:
    return {
        "party": result.party,
        "ap": sorted(result.ap),
        "pp": sorted(result.pp),
    }
