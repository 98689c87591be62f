"""Independent reference implementations used to check the package.

Most of what is here is written from scratch in a deliberately different style:
membership predicates over explicit universes, brute-force longest paths,
exhaustive permutation search for embeddings, and exhaustive walk
enumeration for path patterns. Nothing imports the package's algorithms
beyond plain data types and ``eval_predicate``. Two sections are different in
kind: verbatim copies of earlier package code (the character-loop scanner and
the backtracking matcher), kept as references for differential tests.
"""

from __future__ import annotations

from collections import namedtuple
from datetime import datetime
from itertools import permutations

from provpurpose.errors import FidaSyntaxError, TypeMismatchError
from provpurpose.matching import (
    MatchValue,
    PathPattern,
    PathStep,
    PatternVertex,
    ProvenancePartition,
    eval_predicate,
)
from provpurpose.provenance import EdgeLabel, ProvEdge, ProvenanceGraph


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
        for t in (int, str, datetime):
            if isinstance(v, t):
                return t
        return None

    lk, rk = kind(left), kind(right)
    if lk is None or rk is None or lk is not rk:
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
