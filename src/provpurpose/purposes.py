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

from bisect import bisect_left, bisect_right
from collections.abc import Collection, Container, Iterable, Iterator, Mapping
from functools import cached_property
from itertools import compress
from typing import Any, TypeVar

from . import _docs
from ._dagutil import reachable_from, topological_order
from .errors import (
    EmptyPurposeSetError,
    InputFormatError,
    MissingHierarchyLineError,
    UnknownPurposeError,
)

PurposeSet = frozenset[str]

# Maps a mask's binary digits to the 0/1 bytes that select its members.
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")

K = TypeVar("K")
V = TypeVar("V")


class _BoundedMap(dict[K, V]):
    """A map kept across decisions, which stores the first `bound` keys it meets and no more.

    A site reads it with ``get``, and on a miss computes the value and hands
    it to `keep`. Past the bound the value is still returned but not stored,
    so a later key is computed on every use. A computation that raises
    reaches no `keep`, so it stores nothing and raises again on the next use.
    """

    __slots__ = ()
    bound = 128

    def keep(self, key: K, value: V) -> V:
        """Store `value` under `key` while the map holds fewer than `bound` entries; return `value`."""
        if len(self) < self.bound:
            self[key] = value
        return value


def _named(members: Iterable[Any], known: Container[Any]) -> Any:
    """The member not in `known` that an unknown-purpose error names: the least name, else the least other value.

    Other values order by their type's name, then their repr, after every
    name, so a set that mixes types names one member, the same at every site.
    A member that cannot be hashed is in no set of purposes.
    """
    def absent(p: Any) -> bool:
        try:
            return p not in known
        except TypeError:
            return True

    return min(filter(absent, members), key=lambda p: (0, p) if isinstance(p, str) else (1, type(p).__name__, repr(p)))


class PurposeBits:
    """One bit per purpose of a graph, so sets of its purposes become int masks.

    Bit i stands for `names[i]`; the names are all the encoding keeps per
    name. `high` is the mask of the graph's high part.

    The names run by (rank, name): bits ``layers[r]`` up to ``layers[r + 1]``
    hold rank r, so the lowest and highest set bits of a mask are members
    of its least and greatest rank.
    """

    def __init__(self, graph: PurposeGraph) -> None:
        self._ranks = ranks = graph._rank
        self.names = tuple(sorted(graph.purposes, key=lambda p: (ranks[p], p)))
        by_rank = [ranks[p] for p in self.names]
        self.layers = tuple(bisect_left(by_rank, r) for r in range(by_rank[-1] + 2))
        self.high = self.encode(graph.high)

    def encode(self, s: Iterable[str]) -> int:
        """The mask of a set of encoded names; raise on the unknown one that :func:`_named` names."""
        names, ranks, layers = self.names, self._ranks, self.layers
        mask = 0
        rest = iter(s)  # what is left of `s` after the first unknown member, even if `s` is one-shot
        for p in rest:
            try:
                rank = ranks[p]
            except (KeyError, TypeError):  # no name here, or not hashable
                raise UnknownPurposeError(f"unknown purpose {_named([p, *rest], ranks)!r}") from None
            mask |= 1 << bisect_left(names, p, layers[rank], layers[rank + 1])
        return mask

    def decode(self, mask: int) -> PurposeSet:
        """The names whose bits are set in `mask`; raise on a negative mask or a bit no name holds."""
        if mask < 0 or mask >> len(self.names):
            raise UnknownPurposeError(f"mask {mask} is not a set of the {len(self.names)} encoded purposes")
        return frozenset(compress(self.names, f"{mask:b}"[::-1].encode().translate(_DIGIT_BITS)))

    def least_rank(self, mask: int) -> int:
        """The least rank in a non-empty mask: its lowest set bit's."""
        return bisect_right(self.layers, (mask & -mask).bit_length() - 1) - 1

    def greatest_rank(self, mask: int) -> int:
        """The greatest rank in a non-empty mask: its highest set bit's."""
        return bisect_right(self.layers, mask.bit_length() - 1) - 1


class PurposeGraph:
    """An immutable purpose DAG with precomputed ranks.

    Its fields are read as :func:`purpose_graph_from_dict` reads them: the
    purposes as :func:`_docs.names` reads a list of names, the edges as
    :func:`_docs.collection` reads an array (a list, tuple, set, frozenset or
    one-shot iterator), each edge as an array of two ends, each end as
    :func:`_docs.text` reads a scalar, and the line as an integer. Anything
    else raises :class:`InputFormatError`.
    """

    def __init__(
        self,
        purposes: Iterable[str],
        edges: Collection[tuple[str, str]] | Iterator[tuple[str, str]],
        hierarchy_line: int | None = None,
    ) -> None:
        text, entry = _docs.text, _docs.entry
        self._purposes = _docs.names(purposes, '"purposes"')
        if not self._purposes:
            raise InputFormatError("purpose graph needs at least one purpose")
        self._children: dict[str, list[str]] = {p: [] for p in self._purposes}
        self._parents: dict[str, list[str]] = {p: [] for p in self._purposes}
        seen: set[tuple[str, str]] = set()
        for edge in _docs.collection(edges, '"edges"'):
            parent, child = entry(edge, 2, "purpose edge")
            parent, child = text(parent, "purpose edge end"), text(child, "purpose edge end")
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
        if hierarchy_line is not None and _docs.integer(hierarchy_line, '"hierarchy_line"') < 0:
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

    @cached_property
    def bits(self) -> PurposeBits:
        """One bit per purpose, by (rank, name), and the high part's mask, derived on first use."""
        return PurposeBits(self)

    def __contains__(self, p: str) -> bool:
        return p in self._purposes

    def _check(self, p: str) -> str:
        if p not in self._purposes:
            raise UnknownPurposeError(f"unknown purpose {p!r}")
        return p

    def check_members(self, s: Iterable[str]) -> PurposeSet:
        """Return the members as a set; raise on a string, and on the unknown one that :func:`_named` names.

        A string is not read as the characters of names.
        """
        if isinstance(s, str):
            raise InputFormatError(f"a purpose set must be a collection of purpose names, not the string {s!r}")
        s = tuple(s) if iter(s) is s else s  # a one-shot `s` is copied, so an unknown member can still be named
        try:
            members = frozenset(s)
            if members <= self._purposes:
                return members
        except TypeError:  # a member that cannot be hashed
            pass
        raise UnknownPurposeError(f"unknown purpose {_named(s, self._purposes)!r}")

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

    The purposes, the edges and the line are read by the :class:`PurposeGraph` constructor.
    """
    doc = _docs.obj(doc, "purpose graph document")
    return PurposeGraph(doc.get("purposes"), doc.get("edges", []), doc.get("hierarchy_line"))


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
