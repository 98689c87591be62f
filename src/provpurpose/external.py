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

The expression compiles once per text and party names, by algebra's
compiler over this module's steps, one step per node, into a program that
runs over the parties' sets, or over their ``(ap, pp)`` masks under a
purpose graph's own encoding, the form `decide` hands over. A bare function
name over n parties is n - 1 binary steps. Over masks, the compiled program
owns one :class:`~provpurpose.purposes._BoundedMap` per purpose graph,
weakly keyed as a party plan is, from the parties' masks in slot order to
the decided set: masks met before run no step and no decode.
`apply_external` runs the same F1-F8 step over two parties' sets. A
precedence selection checks sets against the graph, so an unknown purpose
raises, and ranks them as masks under its encoding, by their lowest or
highest set bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Any, Mapping, Sequence
from weakref import WeakKeyDictionary

from . import _docs
from .algebra import _MEANING, BasicOp, MergeProgram, _compile, _Meaning, _minus, _plain, _Raw, _Step
from .algebra import eval_fida, left_fold_expr, op_subtraction, parse_fida

# F5-F8 rank in the compiled steps; this name stays bound for decidebench's tracer.
from .algebra import precedence_total  # noqa: F401
from .errors import ConfigurationError, EmptyPurposeSetError
from .purposes import PurposeGraph, PurposeSet, _BoundedMap


@dataclass(frozen=True)
class PartyResult:
    """One party's allowed and prohibited purposes after policy evaluation.

    `party` is read as :func:`_docs.party` reads a name, and each side as
    :func:`_docs.names` reads a set of names.
    """

    party: str
    ap: PurposeSet = frozenset()
    pp: PurposeSet = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "party", _docs.party(self.party))
        object.__setattr__(self, "ap", _docs.names(self.ap, '"ap"'))
        object.__setattr__(self, "pp", _docs.names(self.pp, '"pp"'))

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

def _party_merge(allowed: _Meaning, prohibited: _Meaning, l: _Raw, r: _Raw) -> _Raw:
    """``F(l, r)`` for one F-function over sets or masks; the decision prohibits nothing."""
    tag = l[2]
    return _minus(_plain(allowed, l[0], r[0], tag), _plain(prohibited, l[1], r[1], tag)), l[1] ^ l[1], tag


def _party_infix(meaning: _Meaning, l: _Raw, r: _Raw) -> _Raw:
    """An infix operator over two parties' intended views, allowed minus prohibited; the result prohibits nothing."""
    tag = l[2]
    return _plain(meaning, _minus(l[0], l[1]), _minus(r[0], r[1]), tag), l[1] ^ l[1], tag


# A program step per function and per infix operator, as in algebra's compiled programs.
_PARTY_STEPS: dict[str, _Step] = {
    fn.value: (2, partial(_party_merge, _MEANING[ap], _MEANING[pp])) for fn, (ap, pp) in _PARTY_RULES.items()
}
_PARTY_INFIX: dict[BasicOp, _Step] = {op: (2, partial(_party_infix, meaning)) for op, meaning in _MEANING.items()}


def apply_external(
    fn: ExternalFunction,
    sm: PartyResult,
    sn: PartyResult,
    pg: PurposeGraph | None = None,
) -> PurposeSet:
    """Combine two party results into one decision set, over the sets themselves."""
    return _PARTY_STEPS[fn.value][1]((sm.ap, sm.pp, pg), (sn.ap, sn.pp, pg))[0]


@lru_cache(maxsize=64)
def _party_program(
    text: str, names: tuple[str, ...]
) -> tuple[MergeProgram, WeakKeyDictionary[PurposeGraph, _BoundedMap[tuple[tuple[int, int], ...], PurposeSet]]]:
    """The program of a stripped text over the named parties, one slot each, and its decided sets.

    It is compiled as :func:`~provpurpose.algebra.compile_fida` compiles, over the F1-F8 and party infix steps.
    Its decided sets are a bounded map per purpose graph, weakly keyed, from the parties' masks in slot order to the
    set decided under that graph, which `merge_parties` fills. A faulty text is not kept.
    """
    expr = left_fold_expr(text, names) if text in _PARTY_STEPS else parse_fida(text)
    program = _compile(expr, names, _PARTY_STEPS, _PARTY_INFIX, ("party named", "cross-party function"))
    return program, WeakKeyDictionary()


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
    ``pg.bits`` by party name; the decided mask is then decoded by
    ``pg.bits``. The decided set is kept by the masks' tuple in the
    program's bounded map for `pg`, so masks met before are answered with
    no run and no decode.
    """
    if not results:
        raise EmptyPurposeSetError("no party results to merge")
    if type(results) is dict or isinstance(results, Mapping):  # decide's dict skips the ABC check
        if pg is None:
            raise ConfigurationError("party result masks need the purpose graph that encodes them")
        program, by_graph = _party_program(expr_text.strip(), tuple(results))
        decided = by_graph.get(pg)
        if decided is None:
            decided = by_graph[pg] = _BoundedMap()
        masks = tuple(results.values())
        members = decided.get(masks)
        if members is None:
            ap, pp = eval_fida(program, masks, pg)
            members = decided.keep(masks, pg.bits.decode(_minus(ap, pp)))
        return members
    names = tuple(r.party for r in results)
    if len(set(names)) != len(names):
        raise ConfigurationError("party names must be distinct to merge")
    merged = eval_fida(_party_program(expr_text.strip(), names)[0], [(r.ap, r.pp, pg) for r in results])
    return _minus(merged.ap, merged.pp)


def party_result_from_dict(doc: Mapping[str, Any], default_party: str = "party") -> PartyResult:
    doc = _docs.obj(doc, "party result")
    return PartyResult(doc.get("party", default_party), doc.get("ap", []), doc.get("pp", []))


def party_result_to_dict(result: PartyResult) -> dict[str, Any]:
    return {
        "party": result.party,
        "ap": sorted(result.ap),
        "pp": sorted(result.pp),
    }
