"""Independent reference implementations used to check the package.

Most of what is here is written from scratch in a deliberately different style:
membership predicates over explicit universes, brute-force longest paths,
exhaustive permutation search for embeddings, and exhaustive walk
enumeration for path patterns. Five sections are different in kind: verbatim
copies of earlier package code (the character-loop scanner, the backtracking
matcher, the four-part hierarchical sets, the frozenset merge evaluator and
the edge-by-edge graph decoder with its successor-list topological order),
kept as references for differential tests. Beyond plain data types and
``eval_predicate``, the copies take from the package only what they share with
it unchanged: the expression parser, its walker ``fold``, the
four plain set operators, the document field readers and
``_dagutil.topological_order``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from datetime import datetime
from functools import reduce
from itertools import permutations
from operator import and_, or_, sub, xor
from typing import Any, Callable, Iterable, Mapping, Sequence

from provpurpose import _docs
from provpurpose._dagutil import topological_order
from provpurpose.algebra import (
    BasicOp,
    FidaExpr,
    InternalFunction,
    PrecedenceKind,
    fold,
    op_difference,
    op_intersection,
    op_subtraction,
    op_union,
    parse_fida,
)
from provpurpose.errors import (
    ConfigurationError,
    FidaSyntaxError,
    InputFormatError,
    TypeMismatchError,
    UnboundNameError,
    UnknownVertexError,
)
from provpurpose.matching import (
    AttrCondition,
    AttrConstraint,
    MatchValue,
    NullCondition,
    PathPattern,
    PathStep,
    PatternVertex,
    ProvenancePartition,
    QueryCondition,
    eval_predicate,
)
from provpurpose.policy import TreeLeaf
from provpurpose.provenance import (
    ALLOWED_EDGES,
    AttrValue,
    EdgeLabel,
    ProvEdge,
    ProvenanceGraph,
    ProvVertex,
    ValidityReport,
    VertexType,
    attrs_from_json,
    vertex_type_from_json,
)
from provpurpose.purposes import PurposeGraph, PurposeSet


# The package's name lookup for `fold`, kept verbatim for the reference evaluators
# below after the package's own evaluators stopped using it.
def _binding(env: Mapping[str, Any], what: str) -> Callable[[str], Any]:
    """A fold's `ref` that looks names up in `env`: "no {what} 'X'" when unbound."""

    def ref(name: str) -> Any:
        try:
            return env[name]
        except KeyError:
            raise UnboundNameError(f"no {what} {name!r}") from None

    return ref


# -- plain set operators as membership predicates --------------------------------

def o_union(universe, a, b):
    return frozenset(x for x in universe if x in a or x in b)


def o_inter(universe, a, b):
    return frozenset(x for x in universe if x in a and x in b)


def o_symdiff(universe, a, b):
    return frozenset(x for x in universe if (x in a) != (x in b))


def o_minus(universe, a, b):
    return frozenset(x for x in universe if x in a and not (x in a and x in b))


# -- brute-force purpose ranks ---------------------------------------------------

def brute_force_ranks(purposes, edges):
    """Longest path from any root, computed by naive recursion."""
    parent_map = {p: [a for (a, b) in edges if b == p] for p in purposes}

    def longest(p, seen):
        best = 0
        for parent in parent_map[p]:
            if parent in seen:
                raise ValueError("cycle")
            length = 1 + longest(parent, seen | {parent})
            if length > best:
                best = length
        return best

    return {p: longest(p, frozenset({p})) for p in purposes}


def o_precedence(kind, a, b, ranks, universe):
    """Whole-operand selection; ties return the union. Operands non-empty."""
    if kind in ("upmax", "downmax"):
        ka = min(ranks[x] for x in a)
        kb = min(ranks[x] for x in b)
    else:
        ka = max(ranks[x] for x in a)
        kb = max(ranks[x] for x in b)
    if ka == kb:
        return o_union(universe, a, b)
    a_wins = (ka < kb) if kind in ("upmax", "upmin") else (ka > kb)
    return frozenset(a) if a_wins else frozenset(b)


def o_precedence_total(kind, a, b, ranks, universe):
    if not a:
        return frozenset(b)
    if not b:
        return frozenset(a)
    return o_precedence(kind, a, b, ranks, universe)


# -- hierarchical merge functions, one explicit formula each ---------------------
# Operands are (ha, hp, la, lp) tuples; results likewise.

def oracle_internal(token, si, sj, universe):
    hai, hpi, lai, lpi = si
    haj, hpj, laj, lpj = sj
    u = universe
    if token == "f_oplus":
        hp = o_minus(u, hpi, hpj)
        lp = o_minus(u, lpi, lpj)
        return (o_minus(u, o_inter(u, hai, haj), hp), hp,
                o_minus(u, o_union(u, lai, laj), lp), lp)
    if token == "f_ominus":
        hp = o_inter(u, hpi, hpj)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_inter(u, hai, haj), hp), hp,
                o_minus(u, o_union(u, lai, laj), lp), lp)
    if token == "f_otimes":
        hp = o_minus(u, hpi, hpj)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_inter(u, hai, haj), hp), hp,
                o_minus(u, o_union(u, lai, laj), lp), lp)
    if token == "f_oslash":
        hp = o_inter(u, hpi, hpj)
        lp = o_minus(u, lpi, lpj)
        return (o_minus(u, o_inter(u, hai, haj), hp), hp,
                o_minus(u, o_union(u, lai, laj), lp), lp)
    if token == "f_odot":
        hp = o_minus(u, hpi, hpj)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_union(u, hai, haj), hp), hp,
                o_minus(u, o_union(u, lai, laj), lp), lp)
    if token == "f_uplus":
        hp = o_minus(u, hpi, hpj)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_union(u, hai, haj), hp), hp,
                o_minus(u, o_union(u, lai, laj), lp), lp)
    if token == "f_dotplus":
        hp = o_inter(u, hpi, hpj)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_union(u, hai, haj), hp), hp,
                o_minus(u, o_union(u, lai, laj), lp), lp)
    if token == "f_dcap":
        hp = o_inter(u, hpi, hpj)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_union(u, hai, haj), hp), hp,
                o_minus(u, o_inter(u, lai, laj), lp), lp)
    if token == "f_dcup":
        hp = o_inter(u, hpi, hpj)
        lp = o_minus(u, lpi, lpj)
        return (o_minus(u, o_union(u, hai, haj), hp), hp,
                o_minus(u, o_inter(u, lai, laj), lp), lp)
    if token == "f_boxtimes":
        hp = o_minus(u, hpi, hpj)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_symdiff(u, hai, haj), hp), hp,
                o_minus(u, o_symdiff(u, lai, laj), lp), lp)
    if token == "f_boxdot":
        hp = o_minus(u, hpi, hpi)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_symdiff(u, hai, haj), hp), hp,
                o_minus(u, o_union(u, lai, laj), lp), lp)
    if token == "f_boxplus":
        hp = o_minus(u, hpi, hpj)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_union(u, hai, haj), hp), hp,
                o_minus(u, o_symdiff(u, lai, laj), lp), lp)
    if token == "f_divtimes":
        hp = o_minus(u, hpi, hpj)
        lp = o_inter(u, lpi, lpj)
        return (o_minus(u, o_symdiff(u, hai, haj), hp), hp,
                o_minus(u, o_inter(u, lai, laj), lp), lp)
    raise ValueError(token)


def oracle_nary(operands, universe):
    u = universe
    hp = frozenset()
    for _, hpi, _, _ in operands:
        hp = o_union(u, hp, hpi)
    lp = operands[0][3]
    for _, _, _, lpi in operands[1:]:
        lp = o_inter(u, lp, lpi)
    ha = frozenset()
    for hai, _, _, _ in operands:
        ha = o_union(u, ha, hai)
    la = operands[0][2]
    for _, _, lai, _ in operands[1:]:
        la = o_symdiff(u, la, lai)
    return (o_minus(u, ha, hp), hp, o_minus(u, la, lp), lp)


# -- cross-party merge functions, one explicit formula each ----------------------

def oracle_external(token, ap_m, pp_m, ap_n, pp_n, universe, ranks=None):
    u = universe
    if token == "F1":
        return o_minus(u, o_union(u, ap_m, ap_n), o_inter(u, pp_m, pp_n))
    if token == "F2":
        return o_minus(u, o_union(u, ap_m, ap_n), o_minus(u, pp_m, pp_n))
    if token == "F3":
        return o_minus(u, o_inter(u, ap_m, ap_n), o_inter(u, pp_m, pp_n))
    if token == "F4":
        return o_minus(u, o_inter(u, ap_m, ap_n), o_minus(u, pp_m, pp_n))
    if token == "F5":
        return o_minus(u, o_symdiff(u, ap_m, ap_n),
                       o_precedence_total("downmin", pp_m, pp_n, ranks, u))
    if token == "F6":
        return o_minus(u, o_symdiff(u, ap_m, ap_n),
                       o_precedence_total("upmax", pp_m, pp_n, ranks, u))
    if token == "F7":
        return o_minus(u, o_precedence_total("upmax", ap_m, ap_n, ranks, u),
                       o_symdiff(u, pp_m, pp_n))
    if token == "F8":
        return o_minus(u, o_precedence_total("downmin", ap_m, ap_n, ranks, u),
                       o_inter(u, pp_m, pp_n))
    raise ValueError(token)


# -- exhaustive embedding search --------------------------------------------------

def _o_predicate(op, left, right):
    def kind(v):
        if isinstance(v, bool):
            return None
        if isinstance(v, datetime):
            return "naive" if v.utcoffset() is None else "aware"
        for t in (int, str):
            if isinstance(v, t):
                return t
        return None

    lk, rk = kind(left), kind(right)
    if lk is None or rk is None or lk != rk:
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "~":
        return lk is str and right in left
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ValueError(op)


def _o_vertex_ok(pv, vid, graph, check_names, check_attrs):
    gv = graph.vertex(vid)
    if gv.vtype is not pv.vtype:
        return False
    if check_names and pv.name is not None and gv.name != pv.name:
        return False
    if check_attrs:
        attrs = graph.attributes_of(vid)
        for c in pv.constraints:
            if c.item not in attrs:
                return False
            if not _o_predicate(c.pred.value, attrs[c.item], c.operand):
                return False
    return True


def _o_embedding_exists(partition, graph, check_names, check_attrs):
    refs = [v.ref for v in partition.vertices]
    vids = list(graph.vertices)
    if len(vids) < len(refs):
        return False
    graph_edges = list(graph.edges)
    for combo in permutations(vids, len(refs)):
        placed = dict(zip(refs, combo))
        ok = all(
            _o_vertex_ok(pv, placed[pv.ref], graph, check_names, check_attrs)
            for pv in partition.vertices
        )
        if not ok:
            continue
        for pe in partition.edges:
            found = any(
                e.src == placed[pe.src]
                and e.dst == placed[pe.dst]
                and (pe.label is None or e.label is pe.label)
                for e in graph_edges
            )
            if not found:
                ok = False
                break
        if ok:
            return True
    return False


def oracle_match_partition(partition, graph):
    """0=none, 1=types-only, 2=names-only, 3=full; mirrors the value chain."""
    if _o_embedding_exists(partition, graph, True, True):
        return 3
    if _o_embedding_exists(partition, graph, True, False):
        return 2
    if _o_embedding_exists(partition, graph, False, False):
        return 1
    return 0


# -- exhaustive walk enumeration for path patterns --------------------------------

def _all_simple_paths(graph):
    """Every directed simple path (as vertex/edge lists), all lengths >= 1."""
    out = []

    def extend(vertex_list, edge_list):
        out.append((list(vertex_list), list(edge_list)))
        for e in graph.out_edges(vertex_list[-1]):
            if e.dst not in vertex_list:
                extend(vertex_list + [e.dst], edge_list + [e])

    for vid in graph.vertices:
        extend([vid], [])
    return out


def _o_labelish(edge, token):
    return edge.label.value == token or edge.refined == token


def _o_walk_realizes(steps, walk_vs, walk_es, graph):
    def matches(step, j, first_step):
        if graph.vertex(walk_vs[j]).name == step.vertex_name:
            return True
        if j > 0 and _o_labelish(walk_es[j - 1], step.edge_or_process):
            return True
        if first_step and j == 0:
            return any(
                _o_labelish(e, step.edge_or_process)
                for e in graph.out_edges(walk_vs[0])
            )
        return False

    def realize(i, j):
        if i == len(steps):
            return False  # caller stops at the last concrete step
        step = steps[i]
        if step is None:
            if realize(i + 1, j):
                return True
            return j + 1 < len(walk_vs) and realize(i, j + 1)
        if not matches(step, j, first_step=(i == 0)):
            return False
        if i == len(steps) - 1:
            return j == len(walk_vs) - 1
        return j + 1 < len(walk_vs) and realize(i + 1, j + 1)

    return realize(0, 0)


def oracle_match_path(pattern, graph):
    """True when some directed walk realizes all steps in order."""
    for walk_vs, walk_es in _all_simple_paths(graph):
        if _o_walk_realizes(pattern.steps, walk_vs, walk_es, graph):
            return True
    return False


# -- naive tree folding ------------------------------------------------------------

def oracle_fold_tree(shape, leaf_values):
    """shape: ('leaf', index) | (op, [children]) with op 'AND'/'OR'."""
    tag = shape[0]
    if tag == "leaf":
        return leaf_values[shape[1]]
    values = [oracle_fold_tree(c, leaf_values) for c in shape[1]]
    result = values[0]
    for v in values[1:]:
        if tag == "AND":
            result = v if v < result else result
        else:
            result = v if v > result else result
    return result


# -- character-loop expression scanner ---------------------------------------------
# The package's scanner before it became one compiled pattern, kept verbatim with
# the tables it read, as the reference for the differential test.

_Token = namedtuple("_Token", "kind value pos")

_WORD_OPS = {"upmax", "downmax", "upmin", "downmin"}

_UNICODE_ALIASES: list[tuple[str, str]] = [
    ("↑△", "upmax"),   # up arrow + triangle
    ("↓△", "downmax"),
    ("↑▽", "upmin"),
    ("↓▽", "downmin"),
    ("▷", "upmax"),         # right-pointing triangle
    ("△", "upmax"),
    ("◁", "downmin"),       # left-pointing triangle
    ("▽", "downmin"),
    ("⊟", "^-"),            # squared minus
    ("−", "-"),             # minus sign
]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        alias = next((a for a in _UNICODE_ALIASES if text.startswith(a[0], i)), None)
        if alias is not None:
            seq, replacement = alias
            tokens.append(_Token("op", replacement, i))
            i += len(seq)
            continue
        if ch in "+-&" or text.startswith("^-", i):
            op = "^-" if ch == "^" else ch
            tokens.append(_Token("op", op, i))
            i += len(op)
            continue
        if ch in "(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(_Token("op" if word in _WORD_OPS else "name", word, i))
            i = j
            continue
        raise FidaSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


oracle_tokenize = _tokenize


# -- the backtracking matcher before the graph index ---------------------------------
# The package's partition search and path walk before the search plan, the graph
# index and the explicit-stack walk, kept verbatim (with the helpers they call) as
# the reference for the differential test. They scan every graph vertex for every
# pattern vertex and recurse once per walk step, so they suit graphs of up to a
# few hundred vertices; predicates come from the package, which did not change them.

def _vertex_admissible(
    pv: PatternVertex,
    vid: str,
    graph: ProvenanceGraph,
    check_names: bool,
    check_attrs: bool,
) -> bool:
    gv = graph.vertex(vid)
    if gv.vtype is not pv.vtype:
        return False
    if check_names and pv.name is not None and gv.name != pv.name:
        return False
    if check_attrs and pv.constraints:
        attrs = graph.attributes_of(vid)
        for c in pv.constraints:
            if c.item not in attrs:
                return False
            try:
                if not eval_predicate(c.pred, attrs[c.item], c.operand):
                    return False
            except TypeMismatchError:
                # a constraint that cannot even be compared is unsatisfied
                return False
    return True


def _has_edge(graph: ProvenanceGraph, src: str, dst: str, label: EdgeLabel | None) -> bool:
    for e in graph.out_edges(src):
        if e.dst == dst and (label is None or e.label is label):
            return True
    return False


def _find_embedding(
    partition: ProvenancePartition,
    graph: ProvenanceGraph,
    check_names: bool,
    check_attrs: bool,
) -> bool:
    order = partition.vertices
    placed: dict[str, str] = {}
    used: set[str] = set()
    vids = list(graph.vertices)

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        pv = order[i]
        for vid in vids:
            if vid in used:
                continue
            if not _vertex_admissible(pv, vid, graph, check_names, check_attrs):
                continue
            ok = True
            for pe in partition.edges:
                if pe.src == pv.ref and pe.dst in placed:
                    if not _has_edge(graph, vid, placed[pe.dst], pe.label):
                        ok = False
                        break
                elif pe.dst == pv.ref and pe.src in placed:
                    if not _has_edge(graph, placed[pe.src], vid, pe.label):
                        ok = False
                        break
            if not ok:
                continue
            placed[pv.ref] = vid
            used.add(vid)
            if backtrack(i + 1):
                return True
            del placed[pv.ref]
            used.remove(vid)
        return False

    return backtrack(0)


def match_partition(partition: ProvenancePartition, graph: ProvenanceGraph) -> MatchValue:
    """Best stratum at which the partition embeds into the graph."""
    if _find_embedding(partition, graph, check_names=True, check_attrs=True):
        return MatchValue.FULL
    if _find_embedding(partition, graph, check_names=True, check_attrs=False):
        return MatchValue.NAMES
    if _find_embedding(partition, graph, check_names=False, check_attrs=False):
        return MatchValue.TYPES
    return MatchValue.NONE


def _edge_labelish(edge: ProvEdge, token: str) -> bool:
    return edge.label.value == token or edge.refined == token


def _step_at(
    step: PathStep,
    vid: str,
    entry: ProvEdge | None,
    graph: ProvenanceGraph,
    first: bool,
) -> bool:
    if graph.vertex(vid).name == step.vertex_name:
        return True
    if entry is not None and _edge_labelish(entry, step.edge_or_process):
        return True
    if first and entry is None:
        return any(_edge_labelish(e, step.edge_or_process) for e in graph.out_edges(vid))
    return False


def match_path(pattern: PathPattern, graph: ProvenanceGraph) -> MatchValue:
    """FULL when some directed walk realizes every step in order, else NONE."""
    steps = pattern.steps
    failed: set[tuple[str, int, ProvEdge | None]] = set()
    visiting: set[tuple[str, int, ProvEdge | None]] = set()

    def search(vid: str, entry: ProvEdge | None, i: int) -> bool:
        key = (vid, i, entry)
        if key in failed or key in visiting:
            return False
        visiting.add(key)
        try:
            step = steps[i]
            if step is None:
                if search(vid, entry, i + 1):
                    return True
                for e in graph.out_edges(vid):
                    if search(e.dst, e, i):
                        return True
                failed.add(key)
                return False
            if not _step_at(step, vid, entry, graph, first=(i == 0)):
                failed.add(key)
                return False
            if i == len(steps) - 1:
                return True
            for e in graph.out_edges(vid):
                if search(e.dst, e, i + 1):
                    return True
            failed.add(key)
            return False
        finally:
            visiting.discard(key)

    for vid in graph.vertices:
        if search(vid, None, 0):
            return MatchValue.FULL
    return MatchValue.NONE


reference_match_partition = match_partition
reference_match_path = match_path


# -- hierarchical sets stored as four parts -------------------------------------------
# The package's hierarchical purpose sets before merges cut whole (allowed,
# prohibited) pairs at the hierarchy line: each set kept its high and low parts
# apart and every merge worked part by part. Kept verbatim, with the rule table,
# the operator tables, the precedence comparison and the helpers they used, as
# the reference for the differential test; the plain set operators and the
# expression parser and walker come from the package.

_SetOp = Callable[[PurposeSet, PurposeSet], PurposeSet]

_SET_OPS: dict[str, _SetOp] = {
    "+": op_union,
    "&": op_intersection,
    "^-": op_difference,
    "-": op_subtraction,
}

_PRECEDENCE_OF_OP = {
    BasicOp.HIGH_MAX: PrecedenceKind.HIGH_MAX,
    BasicOp.LOW_MAX: PrecedenceKind.LOW_MAX,
    BasicOp.HIGH_MIN: PrecedenceKind.HIGH_MIN,
    BasicOp.LOW_MIN: PrecedenceKind.LOW_MIN,
}


def _precedence_winner(
    kind: PrecedenceKind, s1: PurposeSet, s2: PurposeSet, pg: PurposeGraph | None
) -> int:
    """-1 when s1 wins, 1 when s2 wins, 0 on a tie.

    An empty operand loses without a rank comparison, so two empty operands
    tie; only two non-empty operands need `pg`.
    """
    if not s1 or not s2:
        return bool(s2) - bool(s1)
    if pg is None:
        raise ConfigurationError("precedence operators need a purpose graph")
    if kind in (PrecedenceKind.HIGH_MAX, PrecedenceKind.LOW_MAX):
        k1 = min(pg.rank_of(p) for p in s1)
        k2 = min(pg.rank_of(p) for p in s2)
    else:
        k1 = max(pg.rank_of(p) for p in s1)
        k2 = max(pg.rank_of(p) for p in s2)
    if k1 == k2:
        return 0
    higher_wins = kind in (PrecedenceKind.HIGH_MAX, PrecedenceKind.HIGH_MIN)
    return -1 if (k1 < k2) == higher_wins else 1


@dataclass(frozen=True)
class ReferenceHierarchicalPurposeSet:
    """Allowed/prohibited purposes split into high/low hierarchy parts.

    `graph` remembers which purpose graph the split used; it never takes part
    in equality and exists so merges can reject operands split under
    different graphs.
    """

    ha: PurposeSet = frozenset()
    hp: PurposeSet = frozenset()
    la: PurposeSet = frozenset()
    lp: PurposeSet = frozenset()
    graph: PurposeGraph | None = field(default=None, compare=False, repr=False)

    def allowed(self) -> PurposeSet:
        return self.ha | self.la

    def prohibited(self) -> PurposeSet:
        return self.hp | self.lp

    @classmethod
    def empty(cls) -> "ReferenceHierarchicalPurposeSet":
        return cls()


def reference_split_result(pg: PurposeGraph, ap: Iterable[str], pp: Iterable[str]) -> ReferenceHierarchicalPurposeSet:
    """Split allowed and prohibited sets at the graph's hierarchy line."""
    ha, la = pg.split_static(ap)
    hp, lp = pg.split_static(pp)
    return ReferenceHierarchicalPurposeSet(ha, hp, la, lp, graph=pg)


# (high combine, high prohibit, low combine, low prohibit); see the module table.
_REFERENCE_MERGE_RULES: dict[InternalFunction, tuple[str, str, str, str]] = {
    InternalFunction.OPLUS: ("&", "-", "+", "-"),
    InternalFunction.OMINUS: ("&", "&", "+", "&"),
    InternalFunction.OTIMES: ("&", "-", "+", "&"),
    InternalFunction.OSLASH: ("&", "&", "+", "-"),
    InternalFunction.ODOT: ("+", "-", "+", "&"),
    InternalFunction.UPLUS: ("+", "-", "+", "&"),
    InternalFunction.DOTPLUS: ("+", "&", "+", "&"),
    InternalFunction.DCAP: ("+", "&", "&", "&"),
    InternalFunction.DCUP: ("+", "&", "&", "-"),
    InternalFunction.BOXTIMES: ("^-", "-", "^-", "&"),
    InternalFunction.BOXDOT: ("^-", "-", "+", "&"),
    InternalFunction.BOXPLUS: ("+", "-", "^-", "&"),
    InternalFunction.DIVTIMES: ("^-", "-", "&", "&"),
}

def _check_same_graph(si: ReferenceHierarchicalPurposeSet, sj: ReferenceHierarchicalPurposeSet) -> PurposeGraph | None:
    if si.graph is not None and sj.graph is not None and si.graph is not sj.graph:
        raise ConfigurationError("operands were split under different purpose graphs")
    return si.graph or sj.graph


def reference_apply_internal(
    fn: InternalFunction, si: ReferenceHierarchicalPurposeSet, sj: ReferenceHierarchicalPurposeSet
) -> ReferenceHierarchicalPurposeSet:
    """Merge two hierarchical sets with one of the thirteen functions."""
    graph = _check_same_graph(si, sj)
    high_combine, high_prohibit, low_combine, low_prohibit = _REFERENCE_MERGE_RULES[fn]
    # f_boxdot's high prohibit combines the left prohibited part with itself.
    hp_right = si.hp if fn is InternalFunction.BOXDOT else sj.hp
    hp = _SET_OPS[high_prohibit](si.hp, hp_right)
    lp = _SET_OPS[low_prohibit](si.lp, sj.lp)
    ha = op_subtraction(_SET_OPS[high_combine](si.ha, sj.ha), hp)
    la = op_subtraction(_SET_OPS[low_combine](si.la, sj.la), lp)
    return ReferenceHierarchicalPurposeSet(ha, hp, la, lp, graph=graph)


def reference_apply_nary(sets: Sequence[ReferenceHierarchicalPurposeSet]) -> ReferenceHierarchicalPurposeSet:
    """Merge any number of operands at once.

    High side: union of allowed minus union of prohibited. Low side:
    symmetric-difference fold of allowed minus intersection fold of
    prohibited.
    """
    if len(sets) < 2:
        raise InputFormatError("n-ary merge needs at least two operands")
    graph = None
    for s in sets:
        if s.graph is not None:
            if graph is not None and s.graph is not graph:
                raise ConfigurationError("operands were split under different purpose graphs")
            graph = s.graph
    hp = reduce(op_union, (s.hp for s in sets))
    lp = reduce(op_intersection, (s.lp for s in sets))
    ha = op_subtraction(reduce(op_union, (s.ha for s in sets)), hp)
    la = op_subtraction(reduce(op_difference, (s.la for s in sets)), lp)
    return ReferenceHierarchicalPurposeSet(ha, hp, la, lp, graph=graph)


def _componentwise(
    op: Callable[[PurposeSet, PurposeSet], PurposeSet],
    l: ReferenceHierarchicalPurposeSet,
    r: ReferenceHierarchicalPurposeSet,
) -> ReferenceHierarchicalPurposeSet:
    return ReferenceHierarchicalPurposeSet(
        op(l.ha, r.ha), op(l.hp, r.hp), op(l.la, r.la), op(l.lp, r.lp),
        graph=_check_same_graph(l, r),
    )


_FUNCTION_BY_TOKEN = {fn.value: fn for fn in InternalFunction}


def _merge_call(name: str, args: list[ReferenceHierarchicalPurposeSet]) -> ReferenceHierarchicalPurposeSet:
    if name == "f_nary":
        return reference_apply_nary(args)
    fn = _FUNCTION_BY_TOKEN.get(name)
    if fn is None:
        raise UnboundNameError(f"unknown merge function {name!r}")
    if len(args) != 2:
        raise FidaSyntaxError(f"{name} takes exactly two operands")
    return reference_apply_internal(fn, args[0], args[1])


def reference_eval_fida(
    expr: FidaExpr | str,
    env: Mapping[str, ReferenceHierarchicalPurposeSet],
    pg: PurposeGraph | None = None,
) -> ReferenceHierarchicalPurposeSet:
    """Evaluate an expression over hierarchical operands.

    Infix operators act componentwise; precedence selections compare
    operands by their combined allowed parts and need `pg` (or operands that
    carry their split graph). Function calls dispatch to the thirteen binary
    merges (exactly two arguments) or to ``f_nary``.
    """
    if isinstance(expr, str):
        expr = parse_fida(expr)

    def infix(op: BasicOp, l: ReferenceHierarchicalPurposeSet, r: ReferenceHierarchicalPurposeSet):
        kind = _PRECEDENCE_OF_OP.get(op)
        if kind is None:
            return _componentwise(_SET_OPS[op.value], l, r)
        winner = _precedence_winner(kind, l.allowed(), r.allowed(), pg or l.graph or r.graph)
        return l if winner < 0 else r if winner > 0 else _componentwise(op_union, l, r)

    return fold(expr, _binding(env, "set bound to"), _merge_call, infix)


# -- merge expressions over frozensets ---------------------------------------------
# The package's merge expression evaluator before compiled programs ran over
# purpose bit masks: every value an (allowed, prohibited, graph) triple of
# frozensets, each merge cutting whole sides at the shared graph's high part.
# Copied with its names prefixed and its rank lookups made public, and
# evaluated by walking the expression, as the reference for the mask
# program's results and errors.

_FsRaw = tuple[PurposeSet, PurposeSet, Any]


def _fs_rule(*spellings: str | None) -> tuple[Callable[[PurposeSet, PurposeSet], PurposeSet] | None, ...]:
    return tuple(None if op is None else _FS_OPS[op] for op in spellings)


_FS_OPS = {"+": or_, "-": sub, "^-": xor, "&": and_}
_FS_MERGE_RULES = {
    InternalFunction.OPLUS: _fs_rule("&", "-", "+", "-"),
    InternalFunction.OMINUS: _fs_rule("&", "&", "+", "&"),
    InternalFunction.OTIMES: _fs_rule("&", "-", "+", "&"),
    InternalFunction.OSLASH: _fs_rule("&", "&", "+", "-"),
    InternalFunction.ODOT: _fs_rule("+", "-", "+", "&"),
    InternalFunction.UPLUS: _fs_rule("+", "-", "+", "&"),
    InternalFunction.DOTPLUS: _fs_rule("+", "&", "+", "&"),
    InternalFunction.DCAP: _fs_rule("+", "&", "&", "&"),
    InternalFunction.DCUP: _fs_rule("+", "&", "&", "-"),
    InternalFunction.BOXTIMES: _fs_rule("^-", "-", "^-", "&"),
    InternalFunction.BOXDOT: _fs_rule("^-", None, "+", "&"),
    InternalFunction.BOXPLUS: _fs_rule("+", "-", "^-", "&"),
    InternalFunction.DIVTIMES: _fs_rule("^-", "-", "&", "&"),
}
_FS_NARY_RULE = _fs_rule("+", "+", "^-", "&")
_FS_RANKING = {
    PrecedenceKind.HIGH_MAX: (min, True),
    PrecedenceKind.LOW_MAX: (min, False),
    PrecedenceKind.HIGH_MIN: (max, True),
    PrecedenceKind.LOW_MIN: (max, False),
}


def _fs_precedence_winner(kind: PrecedenceKind, s1: PurposeSet, s2: PurposeSet, pg: PurposeGraph | None) -> int:
    if pg is None:
        raise ConfigurationError("precedence operators need a purpose graph")
    if not s1 or not s2:
        return bool(s2) - bool(s1)
    pg.check_members(s1)
    pg.check_members(s2)
    extreme, higher_wins = _FS_RANKING[kind]
    k1, k2 = extreme(map(pg.rank_of, s1)), extreme(map(pg.rank_of, s2))
    if k1 == k2:
        return 0
    return -1 if (k1 < k2) == higher_wins else 1


def _fs_pair_graph(g: PurposeGraph | None, h: PurposeGraph | None) -> PurposeGraph | None:
    if h is None or h is g:
        return g
    if g is None:
        return h
    raise ConfigurationError("operands are tagged with different purpose graphs")


def _fs_cut(high: PurposeSet, upper, lower, x: PurposeSet, y: PurposeSet) -> PurposeSet:
    below = lower(x, y)
    if upper is lower or not high:
        return below
    if upper is None:
        return below - high
    return (upper(x, y) & high) | (below - high)


def _fs_merge(rule, x: _FsRaw, y: _FsRaw) -> _FsRaw:
    graph = _fs_pair_graph(x[2], y[2])
    high = frozenset() if graph is None else graph.high
    high_combine, high_prohibit, low_combine, low_prohibit = rule
    pp = _fs_cut(high, high_prohibit, low_prohibit, x[1], y[1])
    return _fs_cut(high, high_combine, low_combine, x[0], y[0]) - pp, pp, graph


def _fs_merge_all(*values: _FsRaw) -> _FsRaw:
    if len(values) < 2:
        raise InputFormatError("n-ary merge needs at least two operands")
    graph = reduce(_fs_pair_graph, [v[2] for v in values])
    high = frozenset() if graph is None else graph.high
    high_combine, high_prohibit, low_combine, low_prohibit = _FS_NARY_RULE
    pp = reduce(lambda x, y: _fs_cut(high, high_prohibit, low_prohibit, x, y), [v[1] for v in values])
    ap = reduce(lambda x, y: _fs_cut(high, high_combine, low_combine, x, y), [v[0] for v in values]) - pp
    return ap, pp, graph


def _fs_infix(op: BasicOp, l: _FsRaw, r: _FsRaw) -> _FsRaw:
    graph = _fs_pair_graph(l[2], r[2])
    meaning = _FS_OPS.get(op.value)
    if meaning is None:
        winner = _fs_precedence_winner(PrecedenceKind(op.value), l[0], r[0], graph)
        if winner:
            l = r = l if winner < 0 else r
        meaning = or_
    return meaning(l[0], r[0]), meaning(l[1], r[1]), graph


def _fs_call(name: str, args: list[_FsRaw]) -> _FsRaw:
    if name == "f_nary":
        return _fs_merge_all(*args)
    fn = _FUNCTION_BY_TOKEN.get(name)
    if fn is None:
        raise UnboundNameError(f"unknown merge function {name!r}")
    if len(args) != 2:
        raise FidaSyntaxError(f"{name} takes exactly two operands")
    return _fs_merge(_FS_MERGE_RULES[fn], args[0], args[1])


def frozenset_eval_fida(expr: FidaExpr, env: Mapping[str, _FsRaw]) -> _FsRaw:
    """Evaluate an expression over (allowed, prohibited, graph) triples of frozensets."""
    return fold(expr, _binding(env, "set bound to"), _fs_call, _fs_infix)


# -- whole decisions from first principles ---------------------------------------------
# Expressions are trees of tuples: ("ref", name), ("call", function, args) or
# ("op", operator, left, right), with operators spelled as in expression text.

_O_SET_OPS = {"+": o_union, "&": o_inter, "^-": o_symdiff, "-": o_minus}


def _o_covers(junior, senior, role_order):
    """Reflexive-transitive closure of junior -> seniors, grown to a fixpoint."""
    reach = {junior}
    while True:
        grown = reach | {s for r in reach for s in role_order.get(r, ())}
        if grown == reach:
            return senior in reach
        reach = grown


def _o_guards(policy, subject, category, role_order):
    if policy.subjects is not None and not any(
        _o_covers(subject, s, role_order) for s in policy.subjects
    ):
        return False
    if policy.categories is not None:
        # a data category is covered by a policy category it equals or occurs in
        if category is None or not any(category in k for k in policy.categories):
            return False
    return True


def _o_full(tree, graph, query_attrs=None):
    """Whether an access tree of null, vertex, attribute, query and partition leaves is a FULL match."""
    if isinstance(tree, TreeLeaf):
        cond = tree.condition
        if isinstance(cond, NullCondition):
            return True
        if isinstance(cond, ProvenancePartition):
            return oracle_match_partition(cond, graph) == 3
        constraints = ()
        if isinstance(cond, AttrCondition):
            constraints = (AttrConstraint(cond.item, cond.pred, cond.operand),)
        elif isinstance(cond, QueryCondition):
            if not query_attrs or cond.query_attr not in query_attrs:
                return False
            constraints = (AttrConstraint(cond.query_attr, cond.pred, query_attrs[cond.query_attr]),)
        pv = PatternVertex("v", cond.vtype, cond.name, constraints)
        return any(_vertex_admissible(pv, vid, graph, True, True) for vid in graph.vertices)
    values = [_o_full(child, graph, query_attrs) for child in tree.children]
    return all(values) if tree.op.value == "AND" else any(values)


def _o_winner(kind, a, b, ranks):
    """-1, 1 or 0 as `a` wins, `b` wins or they tie; an empty operand loses."""
    if not a or not b:
        return (1 if b else 0) - (1 if a else 0)
    if kind in ("upmax", "downmax"):
        ka, kb = min(ranks[x] for x in a), min(ranks[x] for x in b)
    else:
        ka, kb = max(ranks[x] for x in a), max(ranks[x] for x in b)
    if ka == kb:
        return 0
    a_wins = (ka < kb) if kind in ("upmax", "upmin") else (ka > kb)
    return -1 if a_wins else 1


def _o_internal_expr(tree, env, universe, ranks):
    tag = tree[0]
    if tag == "ref":
        return env[tree[1]]
    if tag == "call":
        args = [_o_internal_expr(a, env, universe, ranks) for a in tree[2]]
        if tree[1] == "f_nary":
            return oracle_nary(args, universe)
        return oracle_internal(tree[1], args[0], args[1], universe)
    op = tree[1]
    l = _o_internal_expr(tree[2], env, universe, ranks)
    r = _o_internal_expr(tree[3], env, universe, ranks)
    if op in _O_SET_OPS:
        return tuple(_O_SET_OPS[op](universe, x, y) for x, y in zip(l, r))
    winner = _o_winner(op, l[0] | l[2], r[0] | r[2], ranks)
    if winner:
        return l if winner < 0 else r
    return tuple(o_union(universe, x, y) for x, y in zip(l, r))


def _o_external_expr(tree, env, universe, ranks):
    """A party value is an (allowed, prohibited) pair; a merged one prohibits nothing."""
    tag = tree[0]
    if tag == "ref":
        return env[tree[1]]
    if tag == "call":
        (ap_m, pp_m), (ap_n, pp_n) = (_o_external_expr(a, env, universe, ranks) for a in tree[2])
        return oracle_external(tree[1], ap_m, pp_m, ap_n, pp_n, universe, ranks), frozenset()
    op = tree[1]
    l, r = (o_minus(universe, *_o_external_expr(t, env, universe, ranks)) for t in tree[2:])
    if op in _O_SET_OPS:
        return _O_SET_OPS[op](universe, l, r), frozenset()
    return o_precedence_total(op, l, r, ranks, universe), frozenset()


def _o_left_fold(function, names):
    tree = ("ref", names[0])
    for name in names[1:]:
        tree = ("call", function, (tree, ("ref", name)))
    return tree


def oracle_decide(
    graph, category, subject, role_order, parties, external, purposes, edges, line, attached=None, query_attrs=None
):
    """The decided set and each party's (allowed, prohibited) pair.

    `parties` lists (name, policies, expression); expression None folds the
    policies left to right with f_dotplus. `external` is a bare F1-F8 name,
    folded over the parties in order, or an expression tree over party
    names. Each applicable policy's sets are cut at the hierarchy line into
    four parts; the others contribute four empty parts.
    """
    universe = frozenset(purposes)
    ranks = brute_force_ranks(purposes, edges)
    high = frozenset(p for p in universe if ranks[p] <= line)
    results = {}
    for name, policies, expr in parties:
        env = {}
        for policy in policies:
            if _o_guards(policy, subject, category, role_order or {}) and _o_full(policy.tree, graph, query_attrs):
                ap, pp = policy.ap, policy.pp
            else:
                ap = pp = frozenset()
            env[policy.id] = (
                o_inter(universe, ap, high), o_inter(universe, pp, high),
                o_minus(universe, ap, high), o_minus(universe, pp, high),
            )
        if expr is None:
            expr = _o_left_fold("f_dotplus", [p.id for p in policies])
        ha, hp, la, lp = _o_internal_expr(expr, env, universe, ranks)
        results[name] = (o_union(universe, ha, la), o_union(universe, hp, lp))
    if isinstance(external, str):
        external = _o_left_fold(external, list(results))
    decided = o_minus(universe, *_o_external_expr(external, results, universe, ranks))
    if attached is not None:
        decided = o_inter(universe, decided, attached)
    return decided, [results[name] for name, _, _ in parties]


# -- the edge-by-edge graph decoder ----------------------------------------------------
# The package's graph construction, decoder and validation before the one-pass
# decode: every document entry went through add_vertex or add_edge, and validate
# read vertex types through tau() and collected the hasAttributes in-edges. Kept
# verbatim, as methods of a subclass, as the reference for the differential
# test, with the package's topological order from before the in-degree walk; the
# field readers and the vertex accessors come from the package, which did not
# change them. Two changes to the copy: where it took str() of an id, name, end
# or refined label, it reads the field with _docs.text, in the order the
# package's decoder reads it, so that malformed scalars are compared too; and it
# keeps its edges in lists of its own, as ProvEdge objects, which its three edge
# accessors copy, so the differential test compares the public views of two
# graphs that share no edge storage.

def reference_topological_order_of(graph: ProvenanceGraph) -> list[str] | None:
    """Topological vertex order, or None if the graph has a cycle."""
    successors = {vid: [e.dst for e in graph.out_edges(vid)] for vid in graph.vertices}
    return topological_order(graph.vertices.keys(), successors)


class ReferenceProvenanceGraph(ProvenanceGraph):
    def __init__(self) -> None:
        super().__init__()
        self._ref_edges: list[ProvEdge] = []
        self._ref_out: dict[str, list[ProvEdge]] = {}
        self._ref_in: dict[str, list[ProvEdge]] = {}

    @property
    def edges(self) -> list[ProvEdge]:
        return list(self._ref_edges)

    def out_edges(self, vid: str) -> list[ProvEdge]:
        return list(self._ref_out.get(vid, []))

    def in_edges(self, vid: str) -> list[ProvEdge]:
        return list(self._ref_in.get(vid, []))

    def add_vertex(
        self,
        vtype: VertexType,
        name: str,
        attrs: Mapping[str, AttrValue] | None = None,
        *,
        vid: str | None = None,
    ) -> str:
        """Add a vertex and return its id.

        For agent/artifact/process vertices a non-empty `attrs` mapping is
        stored on a fresh Attribute vertex reached via a ``hasAttributes``
        edge; the main vertex itself keeps an empty payload.
        """
        if not name:
            raise InputFormatError("vertex name must be non-empty")
        if vid is None:
            vid = self._fresh_id()
        if vid in self._vertices:
            raise InputFormatError(f"duplicate vertex id {vid!r}")
        if vtype is VertexType.ATTRIBUTE:
            vertex = ProvVertex(vid, vtype, name, dict(attrs or {}))
            self._insert(vertex)
            return vid
        vertex = ProvVertex(vid, vtype, name, {})
        self._insert(vertex)
        if attrs:
            att_id = f"{vid}:att"
            if att_id in self._vertices:
                raise InputFormatError(f"duplicate vertex id {att_id!r}")
            self._insert(ProvVertex(att_id, VertexType.ATTRIBUTE, f"{name} attributes", dict(attrs)))
            self.add_edge(vid, att_id, EdgeLabel.HAS_ATTRIBUTES)
        return vid

    def add_edge(self, src: str, dst: str, label: EdgeLabel, refined: str | None = None) -> None:
        for vid in (src, dst):
            if vid not in self._vertices:
                raise UnknownVertexError(f"edge endpoint {vid!r} is not a vertex")
        edge = ProvEdge(src, dst, label, refined)
        self._index = None
        self._ref_edges.append(edge)
        self._ref_out.setdefault(src, []).append(edge)
        self._ref_in.setdefault(dst, []).append(edge)

    def _insert(self, vertex: ProvVertex) -> None:
        self._index = None
        self._vertices[vertex.id] = vertex

    def validate(self) -> ValidityReport:
        """Check acyclicity, the closed edge-triple set, and attribute linkage.

        Violations are data, not exceptions: callers get the full list.
        """
        violations: list[str] = []
        for edge in self._ref_edges:
            triple = (self.tau(edge.src), self.tau(edge.dst), edge.label)
            if triple not in ALLOWED_EDGES:
                violations.append(
                    f"edge {edge.src!r} -> {edge.dst!r}: "
                    f"({triple[0].value}, {triple[1].value}, {triple[2].value}) "
                    "is not an allowed relationship"
                )
        if reference_topological_order_of(self) is None:
            violations.append("graph contains a cycle")
        for vertex in self._vertices.values():
            if vertex.vtype is VertexType.ATTRIBUTE:
                incoming = [
                    e for e in self.in_edges(vertex.id) if e.label is EdgeLabel.HAS_ATTRIBUTES
                ]
                if len(incoming) != 1:
                    violations.append(
                        f"attribute vertex {vertex.id!r} has {len(incoming)} incoming "
                        "hasAttributes edges (expected exactly 1)"
                    )
        return ValidityReport(ok=not violations, violations=violations)


def reference_graph_from_dict(doc: Mapping[str, Any]) -> ReferenceProvenanceGraph:
    """Build a graph from the document form: {"vertices": [...], "edges": [...]}.

    Vertex entries are {id, type, name, attrs?}; edge entries are
    {src, dst, label, refinedLabel?}. Inline attrs on a main vertex are
    materialized as an Attribute vertex exactly like :meth:`add_vertex`.
    """
    doc = _docs.obj(doc, "graph document")
    graph = ReferenceProvenanceGraph()
    for entry in _docs.array(doc.get("vertices", []), '"vertices"'):
        try:
            vid, vtype, name = entry["id"], entry["type"], entry["name"]
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"vertex entry {entry!r} needs id/type/name") from exc
        attrs = attrs_from_json(entry.get("attrs"))
        vtype = vertex_type_from_json(vtype)
        name = _docs.text(name, 'vertex "name"')
        graph.add_vertex(vtype, name, attrs, vid=_docs.text(vid, 'vertex "id"'))
    for entry in _docs.array(doc.get("edges", []), '"edges"'):
        try:
            src, dst, label = entry["src"], entry["dst"], entry["label"]
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"edge entry {entry!r} needs src/dst/label") from exc
        refined = entry.get("refinedLabel")
        if refined is not None:
            refined = _docs.text(refined, '"refinedLabel"')
        label = _docs.member(EdgeLabel, label, "edge label")
        src, dst = _docs.text(src, 'edge "src"'), _docs.text(dst, 'edge "dst"')
        graph.add_edge(src, dst, label, refined)
    return graph
