"""Purpose graphs: multi-ancestor DAGs of access purposes.

Every purpose has a rank: the length of the longest path reaching it from any
root. Rank 0 is the most general layer; larger ranks are more specific. Rank
is a topological grading: each edge strictly increases it, so "higher in the
hierarchy" always means "smaller rank".

Ancestor/descendant queries are reflexive (a purpose is its own ancestor and
descendant). Bounded queries select whole rank layers:

* ``partial_ancestors(p, alpha)`` keeps the ``alpha`` rank layers ending at
  p's own layer, i.e. ancestors with rank in [rank(p)-alpha+1, rank(p)].
* ``updown(p, alpha, beta)`` bounds by layers beyond p: ancestors with rank
  >= rank(p)-alpha and descendants with rank <= rank(p)+beta.

The two conventions intentionally differ (the bounded up/down query counts
layers past p, the partial queries count layers including p); both are pinned
by fixture tests.

Splitting a set into high/low hierarchy parts comes in two flavours:
``split_static`` cuts at the graph's fixed ``hierarchy_line`` (members with
rank <= line are the high part), while ``split_central`` derives the cut from
two central purposes: the parting rank is the smaller of their ranks and
members at that rank or deeper form the high part of each set.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from . import _docs
from ._dagutil import reachable_from, topological_order
from .errors import (
    EmptyPurposeSetError,
    InputFormatError,
    MissingHierarchyLineError,
    UnknownPurposeError,
)

PurposeSet = frozenset[str]


class PurposeGraph:
    """An immutable purpose DAG with precomputed ranks."""

    def __init__(
        self,
        purposes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        hierarchy_line: int | None = None,
    ) -> None:
        self._purposes = frozenset(str(p) for p in purposes)
        if not self._purposes:
            raise InputFormatError("purpose graph needs at least one purpose")
        self._children: dict[str, list[str]] = {p: [] for p in self._purposes}
        self._parents: dict[str, list[str]] = {p: [] for p in self._purposes}
        seen: set[tuple[str, str]] = set()
        for parent, child in edges:
            parent, child = str(parent), str(child)
            for end in (parent, child):
                if end not in self._purposes:
                    raise UnknownPurposeError(f"edge endpoint {end!r} is not a listed purpose")
            if (parent, child) in seen:
                continue
            seen.add((parent, child))
            self._children[parent].append(child)
            self._parents[child].append(parent)
        order = topological_order(self._purposes, self._children)
        if order is None:
            raise InputFormatError("purpose graph contains a cycle")
        self._rank: dict[str, int] = {}
        for p in order:
            parents = self._parents[p]
            self._rank[p] = 0 if not parents else 1 + max(self._rank[q] for q in parents)
        if hierarchy_line is not None and hierarchy_line < 0:
            raise InputFormatError("hierarchy_line must be non-negative")
        self._line = hierarchy_line
        line = -1 if hierarchy_line is None else hierarchy_line
        self._high = frozenset(p for p, rank in self._rank.items() if rank <= line)

    # -- basics --------------------------------------------------------------

    @property
    def purposes(self) -> PurposeSet:
        return self._purposes

    @property
    def hierarchy_line(self) -> int | None:
        return self._line

    @property
    def high(self) -> PurposeSet:
        """Purposes at or above the hierarchy line (rank <= line); none without one."""
        return self._high

    def __contains__(self, p: str) -> bool:
        return p in self._purposes

    def _check(self, p: str) -> str:
        if p not in self._purposes:
            raise UnknownPurposeError(f"unknown purpose {p!r}")
        return p

    def check_members(self, s: Iterable[str]) -> PurposeSet:
        """Return the members as a set; raise on the smallest unknown one."""
        members = frozenset(s)
        if not members <= self._purposes:
            self._check(min(members - self._purposes))
        return members

    def rank_of(self, p: str) -> int:
        """Longest-path depth of a purpose; roots have rank 0."""
        return self._rank[self._check(p)]

    def roots(self) -> PurposeSet:
        return frozenset(p for p in self._purposes if not self._parents[p])

    def parents(self, p: str) -> PurposeSet:
        return frozenset(self._parents[self._check(p)])

    def children(self, p: str) -> PurposeSet:
        return frozenset(self._children[self._check(p)])

    # -- ancestry ------------------------------------------------------------

    def ancestors(self, p: str) -> PurposeSet:
        """All purposes that generalize p, including p itself."""
        return frozenset(reachable_from(self._check(p), self._parents))

    def descendants(self, p: str) -> PurposeSet:
        """All purposes that specialize p, including p itself."""
        return frozenset(reachable_from(self._check(p), self._children))

    def partial_ancestors(self, p: str, alpha: int) -> PurposeSet:
        """Ancestors within the `alpha` nearest rank layers, p's layer included."""
        if alpha < 1:
            raise InputFormatError("alpha must be at least 1")
        base = self.rank_of(p)
        return frozenset(q for q in self.ancestors(p) if self._rank[q] > base - alpha)

    def partial_descendants(self, p: str, beta: int) -> PurposeSet:
        """Descendants within the `beta` nearest rank layers, p's layer included."""
        if beta < 1:
            raise InputFormatError("beta must be at least 1")
        base = self.rank_of(p)
        return frozenset(q for q in self.descendants(p) if self._rank[q] < base + beta)

    def updown(self, p: str, alpha: int | None = None, beta: int | None = None) -> PurposeSet:
        """Ancestors and descendants of p, optionally bounded by rank layers

        beyond p's own: with `alpha` given, ancestors keep rank >= rank(p)-alpha;
        with `beta` given, descendants keep rank <= rank(p)+beta.
        """
        base = self.rank_of(p)
        up = self.ancestors(p)
        if alpha is not None:
            if alpha < 0:
                raise InputFormatError("alpha must be non-negative")
            up = frozenset(q for q in up if self._rank[q] >= base - alpha)
        down = self.descendants(p)
        if beta is not None:
            if beta < 0:
                raise InputFormatError("beta must be non-negative")
            down = frozenset(q for q in down if self._rank[q] <= base + beta)
        return up | down

    # -- hierarchy selection ---------------------------------------------------

    def max_hierarchy(self, s: Iterable[str]) -> str:
        """The member closest to a root (minimal rank).

        Rank ties break toward the lexicographically smallest name so the
        result is deterministic.
        """
        members = self.check_members(s)
        if not members:
            raise EmptyPurposeSetError("max_hierarchy of an empty set")
        return min(members, key=lambda p: (self._rank[p], p))

    def min_hierarchy(self, s: Iterable[str]) -> str:
        """The member furthest from a root (maximal rank); ties break by name."""
        members = self.check_members(s)
        if not members:
            raise EmptyPurposeSetError("min_hierarchy of an empty set")
        return min(members, key=lambda p: (-self._rank[p], p))

    # -- splits ---------------------------------------------------------------

    def split_static(self, s: Iterable[str]) -> tuple[PurposeSet, PurposeSet]:
        """(high, low) cut at the graph's hierarchy line.

        Members with rank <= hierarchy_line form the high-hierarchy part.
        """
        if self._line is None:
            raise MissingHierarchyLineError("purpose graph has no hierarchy line")
        members = self.check_members(s)
        high = members & self._high
        return high, members - high

    def split_central(
        self,
        s_i: Iterable[str],
        central_i: str,
        s_j: Iterable[str],
        central_j: str,
    ) -> tuple[tuple[PurposeSet, PurposeSet], tuple[PurposeSet, PurposeSet]]:
        """Split two sets at the rank of the higher-hierarchy central purpose.

        The parting rank is min(rank(central_i), rank(central_j)); members of
        each set at that rank or deeper form its high part, everything above
        the parting line is its low part. Returns ((high_i, low_i),
        (high_j, low_j)).
        """
        parting = min(self.rank_of(central_i), self.rank_of(central_j))

        def cut(s: Iterable[str]) -> tuple[PurposeSet, PurposeSet]:
            members = self.check_members(s)
            high = frozenset(p for p in members if self._rank[p] >= parting)
            return high, members - high

        return cut(s_i), cut(s_j)


# -- serialization ------------------------------------------------------------

def purpose_graph_from_dict(doc: Mapping[str, Any]) -> PurposeGraph:
    """Build from the document form:

    {"purposes": [...], "edges": [[parent, child], ...], "hierarchy_line": int?}
    """
    doc = _docs.obj(doc, "purpose graph document")
    purposes = _docs.names(doc.get("purposes"), '"purposes"')
    raw_edges = _docs.array(doc.get("edges", []), '"edges"')
    edges = [_docs.entry(e, 2, "purpose edge") for e in raw_edges]
    line = doc.get("hierarchy_line")
    if line is not None:
        line = _docs.integer(line, '"hierarchy_line"')
    return PurposeGraph(purposes, edges, line)


def purpose_graph_to_dict(pg: PurposeGraph) -> dict[str, Any]:
    edges = sorted((p, c) for p in pg.purposes for c in pg.children(p))
    doc: dict[str, Any] = {
        "purposes": sorted(pg.purposes),
        "edges": [list(e) for e in edges],
    }
    if pg.hierarchy_line is not None:
        doc["hierarchy_line"] = pg.hierarchy_line
    return doc


def load_purpose_graph(path: str) -> PurposeGraph:
    return _docs.load(path, purpose_graph_from_dict)
