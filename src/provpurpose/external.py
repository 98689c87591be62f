"""Cross-party merging of per-party evaluation results.

Each party's policy evaluation ends in a :class:`PartyResult`: the purposes
it would allow (`ap`) and the purposes it prohibits (`pp`).
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

The expression compiles once per text and party names into a program of
steps over ``(ap, pp)`` purpose bit masks, the form `decide` hands over:
F1-F8 read both parties' pairs, and a party under an infix operator
contributes ap minus pp. Under a purpose graph's own encoding a precedence
selection ranks a mask by its lowest or highest set bit. Party results given
as sets are encoded first, over all their members, and their precedence
selections decode and check both masks, so an unknown purpose raises as it
would over sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Any, Mapping, Sequence

from . import _docs
from .algebra import _MEANING, BasicOp, MergeProgram, PrecedenceKind, _encoded, _fail, _infix, _minus, _Raw, _run
from .algebra import _SetOp, _Step, apply_basic, fold, left_fold_expr, op_subtraction, parse_fida

# F5-F8 rank in the compiled steps; this name stays bound for decidebench's tracer.
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

_Meaning = _SetOp | PrecedenceKind


def _side(meaning: _Meaning, x: int, y: int, tag: Any) -> int:
    """A basic operator over two masks: the allowed side of the infix operator over pairs that prohibit nothing."""
    return _infix(meaning, (x, 0, tag), (y, 0, tag))[0]


def _party_merge(allowed: _Meaning, prohibited: _Meaning, l: _Raw, r: _Raw) -> _Raw:
    """An F-function over two parties' pairs; its decision prohibits nothing."""
    tag = l[2]
    return _minus(_side(allowed, l[0], r[0], tag), _side(prohibited, l[1], r[1], tag)), 0, tag


def _party_infix(meaning: _Meaning, l: _Raw, r: _Raw) -> _Raw:
    """An infix operator over two parties' intended views, allowed minus prohibited."""
    tag = l[2]
    return _side(meaning, _minus(l[0], l[1]), _minus(r[0], r[1]), tag), 0, tag


# A program step per function and per infix operator, as in algebra's compiled programs.
_PARTY_STEPS: dict[ExternalFunction, _Step] = {
    fn: (2, partial(_party_merge, _MEANING[ap_op], _MEANING[pp_op])) for fn, (ap_op, pp_op) in _PARTY_RULES.items()
}
_PARTY_INFIX: dict[BasicOp, _Step] = {op: (2, partial(_party_infix, meaning)) for op, meaning in _MEANING.items()}


def apply_external(
    fn: ExternalFunction,
    sm: PartyResult,
    sn: PartyResult,
    pg: PurposeGraph | None = None,
) -> PurposeSet:
    """Combine two party results into one decision set, over the sets themselves."""
    ap_op, pp_op = _PARTY_RULES[fn]
    allowed = apply_basic(ap_op, sm.ap, sn.ap, pg)
    prohibited = apply_basic(pp_op, sm.pp, sn.pp, pg)
    return op_subtraction(allowed, prohibited)


@lru_cache(maxsize=64)
def _party_program(text: str, names: tuple[str, ...]) -> MergeProgram:
    """The program of a stripped text over the named parties, one slot each; a faulty text is not kept.

    As in :func:`~provpurpose.algebra.compile_fida`, an unbound party, an
    unknown function or a wrong number of operands becomes a step that
    raises when a run reaches it.
    """
    expr = left_fold_expr(text, names) if text in _EXTERNAL_BY_TOKEN else parse_fida(text)
    slots = {name: i for i, name in enumerate(names)}
    code: list[_Step] = []

    def ref(name: str) -> None:
        slot = slots.get(name)
        code.append((0, partial(_fail, UnboundNameError, f"no party named {name!r}")) if slot is None else slot)

    def call(name: str, args: list[None]) -> None:
        fn = _EXTERNAL_BY_TOKEN.get(name)
        if fn is None:
            code.append((len(args), partial(_fail, UnboundNameError, f"unknown cross-party function {name!r}")))
        elif len(args) != 2:
            code.append((len(args), partial(_fail, FidaSyntaxError, f"{name} takes exactly two operands")))
        else:
            code.append(_PARTY_STEPS[fn])

    fold(expr, ref, call, lambda op, l, r: code.append(_PARTY_INFIX[op]))
    return MergeProgram(names, tuple(code))


def merge_parties(
    results: Sequence[PartyResult] | Mapping[str, tuple[int, int]],
    expr_text: str,
    pg: PurposeGraph | None = None,
) -> PurposeSet:
    """Merge party results into the final decision set.

    A bare function name ("F3") folds all parties left to right. Anything
    else is parsed as an expression whose set names refer to parties. Either
    way the party names must be distinct. `results` holds party results, or,
    as `decide` passes them, each party's ``(ap, pp)`` masks under
    ``pg.bits`` by party name.
    """
    if not results:
        raise EmptyPurposeSetError("no party results to merge")
    if isinstance(results, Mapping):
        names, codec = tuple(results), pg.bits
        operands = [(ap, pp, codec) for ap, pp in results.values()]
    else:
        names = tuple(r.party for r in results)
        if len(set(names)) != len(names):
            raise ConfigurationError("party names must be distinct to merge")
        operands, codec = _encoded([(r.ap, r.pp, pg) for r in results])
    ap, pp, _ = _run(_party_program(expr_text.strip(), names).code, operands)
    return codec.decode(_minus(ap, pp))


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
