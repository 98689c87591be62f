"""Purpose DAG: ranks, ancestry windows, hierarchy selection, splits."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provpurpose import (
    EmptyPurposeSetError,
    InputFormatError,
    MissingHierarchyLineError,
    PurposeBits,
    PurposeGraph,
    UnknownPurposeError,
    purpose_graph_from_dict,
    purpose_graph_to_dict,
)
from oracles import brute_force_ranks


def test_ranks_on_hierarchy_fixture(hierarchy):
    assert hierarchy.rank_of("General Purpose") == 0
    assert hierarchy.rank_of("Admin") == 1
    assert hierarchy.rank_of("Record") == 2
    assert hierarchy.rank_of("Analysis") == 3
    assert hierarchy.rank_of("Service-Offers") == 4
    assert hierarchy.rank_of("Education") == 3
    # Audit is a child of Admin but also of AI, so the longest path wins.
    assert hierarchy.rank_of("Audit") == 5


def test_roots_are_the_rank_0_purposes(hierarchy):
    assert hierarchy.roots() == {"General Purpose"}
    assert hierarchy.roots() == {p for p in hierarchy.purposes if hierarchy.rank_of(p) == 0}


def test_ranks_match_brute_force_on_fixture(hierarchy):
    edges = [(p, c) for p in hierarchy.purposes for c in hierarchy.children(p)]
    expected = brute_force_ranks(hierarchy.purposes, edges)
    for p in hierarchy.purposes:
        assert hierarchy.rank_of(p) == expected[p]


def test_ancestors_and_descendants_are_reflexive(hierarchy):
    assert "Analysis" in hierarchy.ancestors("Analysis")
    assert "Analysis" in hierarchy.descendants("Analysis")


def test_full_ancestors_of_analysis(hierarchy):
    assert hierarchy.ancestors("Analysis") == {
        "Analysis",
        "Record",
        "Admin",
        "General Purpose",
    }


def test_partial_ancestors_keep_nearest_layers(hierarchy):
    assert hierarchy.partial_ancestors("Analysis", 3) == {"Admin", "Record", "Analysis"}
    assert hierarchy.partial_ancestors("Analysis", 1) == {"Analysis"}


def test_descendants_of_admin(hierarchy):
    assert hierarchy.descendants("Admin") == {
        "Admin",
        "Audit",
        "Record",
        "Analysis",
        "Service-Maintain",
        "Service-Offers",
    }
    assert hierarchy.partial_descendants("Admin", 3) == {"Admin", "Record", "Analysis"}


def test_updown_unbounded(hierarchy):
    assert hierarchy.updown("Record") == {
        "General Purpose",
        "Admin",
        "Record",
        "Analysis",
        "Service-Maintain",
        "Service-Offers",
    }


def test_updown_bounded_counts_layers_beyond_p(hierarchy):
    assert hierarchy.updown("Record", 1, 2) == {
        "Admin",
        "Record",
        "Analysis",
        "Service-Maintain",
        "Service-Offers",
    }
    assert hierarchy.updown("Marketing", 1, 4) == {
        "General Purpose",
        "Marketing",
        "Direct-use",
        "D-Email",
        "D-Phone",
        "Service-Updates",
        "Service-Offers",
    }


def test_updown_rejects_negative_bounds(hierarchy):
    with pytest.raises(InputFormatError):
        hierarchy.updown("Record", -1, 2)
    with pytest.raises(InputFormatError):
        hierarchy.partial_ancestors("Analysis", 0)
    with pytest.raises(InputFormatError, match="^beta must be non-negative$"):
        hierarchy.updown("Record", beta=-1)
    with pytest.raises(InputFormatError, match="^beta must be at least 1$"):
        hierarchy.partial_descendants("Record", 0)


def test_hierarchy_selection(hierarchy):
    assert hierarchy.max_hierarchy({"Analysis", "Record", "Admin"}) == "Admin"
    assert hierarchy.min_hierarchy({"Analysis", "Record", "Admin"}) == "Analysis"
    with pytest.raises(EmptyPurposeSetError):
        hierarchy.max_hierarchy(frozenset())
    with pytest.raises(EmptyPurposeSetError, match="^min_hierarchy of an empty set$"):
        hierarchy.min_hierarchy([])


def test_static_split_cuts_at_line(hierarchy):
    s = {"Admin", "Record", "Analysis", "Service-Maintain", "Service-Offers"}
    high, low = hierarchy.split_static(s)
    assert high == {"Admin", "Record"}
    assert low == {"Analysis", "Service-Maintain", "Service-Offers"}
    # the high part is derived once from the line, so the line cannot change
    with pytest.raises(AttributeError):
        hierarchy.hierarchy_line = 0


def test_static_split_needs_a_line():
    pg = PurposeGraph(["a", "b"], [("a", "b")])
    with pytest.raises(MissingHierarchyLineError):
        pg.split_static({"a"})


def test_central_split_on_education_set(hierarchy):
    printed = {"Optimise", "AI", "Research", "Study", "Eduction", "General Purpose"}
    record_side = {"Admin", "Record", "Analysis"}
    (_, _), (high_j, low_j) = hierarchy.split_central(
        record_side, "Record", printed, "Education"
    )
    assert high_j == {"Optimise", "AI", "Research"}
    assert low_j == {"Study", "Eduction", "General Purpose"}


def test_unknown_purpose_raises(hierarchy):
    with pytest.raises(UnknownPurposeError):
        hierarchy.rank_of("Nonexistent")
    with pytest.raises(UnknownPurposeError):
        hierarchy.split_static({"Admin", "Nonexistent"})


def test_unknown_members_error_names_the_smallest(hierarchy):
    with pytest.raises(UnknownPurposeError, match="'g1'"):
        hierarchy.check_members({"g3", "Admin", "g1", "g2"})


def test_unknown_members_of_mixed_types_name_the_least_name_first(hierarchy):
    """Names come before other values, which order by type name and repr, so mixed sets raise the domain error."""
    with pytest.raises(UnknownPurposeError, match="^unknown purpose 'x'$"):
        hierarchy.check_members(frozenset({1, "x", "Admin"}))
    with pytest.raises(UnknownPurposeError, match="^unknown purpose 10$"):  # "10" comes before "2"
        hierarchy.check_members({"Admin", 10, 2, (1,)})


def test_a_graphs_own_bits_run_by_rank_then_name(hierarchy):
    bits = hierarchy.bits
    assert list(bits.names) == sorted(hierarchy.purposes, key=lambda p: (hierarchy.rank_of(p), p))
    assert bits.layers[0] == 0 and bits.layers[-1] == len(bits.names)
    for i, p in enumerate(bits.names):
        assert bits.encode([p]) == bits.encode([p, p]) == 1 << i
        assert bits.least_rank(1 << i) == bits.greatest_rank(1 << i) == hierarchy.rank_of(p)
    members = {"Audit", "Admin", "Study", "Education"}
    mask = bits.encode(members)
    assert bits.decode(mask) == members
    assert (bits.least_rank(mask), bits.greatest_rank(mask)) == (1, 5)
    assert bits.high == bits.encode(hierarchy.high)


def test_an_encoding_rejects_a_name_it_lacks_naming_the_smallest(hierarchy):
    pair = PurposeBits(PurposeGraph(["a", "b"], [("a", "b")]))
    for bits, names in ((pair, {"d", "c", "a"}), (hierarchy.bits, {"zz", "c", "Admin"})):
        with pytest.raises(UnknownPurposeError, match="^unknown purpose 'c'$"):
            bits.encode(names)
        # a one-shot iterable: the names after the first unknown one are still read
        with pytest.raises(UnknownPurposeError, match="^unknown purpose 'c'$"):
            bits.encode(p for p in sorted(names, reverse=True))
    with pytest.raises(UnknownPurposeError, match="^unknown purpose 'zz'$"):
        pair.encode(p for p in ["a", "zz"])
    assert pair.encode(p for p in ["b", "a"]) == 0b11


@pytest.mark.parametrize("names, named", [(["a", 2, "q"], "'q'"), ([2, "a", 1.5], "1.5"), ([None, 3], "None")])
def test_an_encoding_names_one_unknown_member_of_mixed_types(names, named):
    """Names before other values, which order by type name and repr, whichever member is met first."""
    pair = PurposeBits(PurposeGraph(["a", "b"], [("a", "b")]))
    for order in (names, names[::-1]):
        with pytest.raises(UnknownPurposeError, match=f"^unknown purpose {re.escape(named)}$"):
            pair.encode(order)


# A list or a set is no purpose: it is named as other values are, after every name, one-shot or not.
_UNHASHABLE = [([["x"]], "['x']"), (["a", {"b"}, ["c"]], "['c']"), (["a", ["c"], "zz"], "'zz'"), ([["c"], "b"], "['c']")]


@pytest.mark.parametrize("members, named", _UNHASHABLE)
def test_an_encoding_names_an_unhashable_member_as_an_unknown_purpose(members, named):
    bits = PurposeBits(PurposeGraph(["a", "b"], [("a", "b")]))
    for given_members in (members, iter(members)):
        with pytest.raises(UnknownPurposeError, match=f"^unknown purpose {re.escape(named)}$"):
            bits.encode(given_members)


@pytest.mark.parametrize("members, named", _UNHASHABLE)
def test_a_member_check_names_an_unhashable_member_as_an_unknown_purpose(members, named):
    pg = PurposeGraph(["a", "b"], [("a", "b")])
    for given_members in (members, iter(members)):
        with pytest.raises(UnknownPurposeError, match=f"^unknown purpose {re.escape(named)}$"):
            pg.check_members(given_members)
    assert pg.check_members(iter(["b", "a"])) == {"a", "b"}


_CHAIN = PurposeGraph(["a", "b", "c"], [("a", "b"), ("b", "c")], 1)
_WIDE = PurposeGraph([f"p{i}" for i in range(8)], [])


@pytest.mark.parametrize("mask", [-1, -2, 0b1111, 1 << 7])
def test_decoding_rejects_a_negative_mask_or_a_bit_past_the_names(mask):
    # the same mask past 8 names: 0b1111 << 5 sets bit 8
    for graph, mask in ((_CHAIN, mask), (_WIDE, mask if mask < 0 else mask << 5)):
        bits = PurposeBits(graph)
        message = f"^mask {mask} is not a set of the {len(bits.names)} encoded purposes$"
        with pytest.raises(UnknownPurposeError, match=message):
            bits.decode(mask)  # before any valid mask is decoded
        for valid in range(1 << len(bits.names)):
            bits.decode(valid)
        with pytest.raises(UnknownPurposeError, match=message):
            bits.decode(mask)  # and after every one is


def test_every_mask_within_the_names_decodes_to_its_members():
    bits = _CHAIN.bits
    assert bits.names == ("a", "b", "c")
    for mask in range(1 << 3):
        assert bits.decode(mask) == {p for i, p in enumerate(bits.names) if mask >> i & 1}
    bits = PurposeBits(_WIDE)
    for mask in range(1 << 8):
        assert bits.decode(mask) == {p for i, p in enumerate(bits.names) if mask >> i & 1}


def test_cycle_rejected():
    with pytest.raises(InputFormatError):
        PurposeGraph(["a", "b"], [("a", "b"), ("b", "a")])


@pytest.mark.parametrize(
    "purposes, line, message",
    [
        ([], None, "purpose graph needs at least one purpose"),
        (["a"], -1, "hierarchy_line must be non-negative"),
    ],
)
def test_a_purpose_graph_needs_a_purpose_and_a_line_of_at_least_0(purposes, line, message):
    with pytest.raises(InputFormatError, match=f"^{message}$"):
        PurposeGraph(purposes, [], hierarchy_line=line)


@pytest.mark.parametrize(
    "purposes, edges, line, message",
    [
        ([None, "a", True], [(None, "a")], None, '"purposes" must be an array of strings'),
        (["a", True], [], None, '"purposes" must be an array of strings'),
        (["a", "b"], [(None, "a")], None, "purpose edge end must be a string or a number, got None"),
        (["a", "b", "c"], [("a", "b", "c")], None, r"purpose edge must be an array of 2 items, got \('a', 'b', 'c'\)"),
        (["a", "b"], ["ab"], None, "purpose edge must be an array"),
        (["a"], [], True, '"hierarchy_line" must be an integer'),
        (["a"], [], 1.5, '"hierarchy_line" must be an integer'),
        (["a"], [], "1", '"hierarchy_line" must be an integer'),
    ],
)
def test_a_purpose_graph_reads_its_fields_as_its_loader_does(purposes, edges, line, message):
    """No field is coerced by str(): null and true are no purposes or edge ends, and true is no line."""
    with pytest.raises(InputFormatError, match=f"^{message}$"):
        PurposeGraph(purposes, edges, hierarchy_line=line)


def test_a_purpose_graph_reads_numbers_as_their_text_as_its_loader_does():
    """An edge end is a scalar, so 1 reads as "1"; a purpose is a name, so 1 is refused as the loader refuses it."""
    pg = PurposeGraph(["1", "a"], [(1, "a")], hierarchy_line=0)
    assert pg.purposes == {"1", "a"} and pg.children("1") == {"a"}
    assert purpose_graph_to_dict(pg) == purpose_graph_to_dict(purpose_graph_from_dict(
        {"purposes": ["1", "a"], "edges": [[1, "a"]], "hierarchy_line": 0}
    ))
    message = '^"purposes" must be an array of strings$'
    with pytest.raises(InputFormatError, match=message):
        PurposeGraph([1, "a"], [], hierarchy_line=0)
    with pytest.raises(InputFormatError, match=message):
        purpose_graph_from_dict({"purposes": [1, "a"]})


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"purposes": ["a"], "edges": [["a"]]}, r"purpose edge must be an array of 2 items, got \['a'\]"),
        ({"purposes": ["a"], "edges": ["a"]}, "purpose edge must be an array"),
        ({"purposes": ["a"], "edges": {"a": "b"}}, '"edges" must be an array'),
        ({"purposes": ["a"], "hierarchy_line": "1"}, '"hierarchy_line" must be an integer'),
        ({"purposes": "ab"}, '"purposes" must be an array'),
        ({"purposes": ["a", 1]}, '"purposes" must be an array of strings'),
    ],
)
def test_the_purpose_graph_loader_keeps_its_messages(doc, message):
    with pytest.raises(InputFormatError, match=f"^{message}$"):
        purpose_graph_from_dict(doc)


@pytest.mark.parametrize("read", ["check_members", "split_static", "max_hierarchy"])
def test_a_purpose_set_given_as_a_string_is_refused_not_read_as_characters(read):
    pg = PurposeGraph(["ab", "a", "b"], [], hierarchy_line=0)
    message = "^a purpose set must be a collection of purpose names, not the string 'ab'$"
    with pytest.raises(InputFormatError, match=message):
        getattr(pg, read)("ab")


def test_membership_is_by_name_and_a_repeated_edge_is_kept_once():
    pg = PurposeGraph(["a", "b"], [("a", "b"), ("a", "b")])
    assert "a" in pg and "z" not in pg
    assert (pg._children, pg._parents) == ({"a": ["b"], "b": []}, {"a": [], "b": ["a"]})
    assert purpose_graph_to_dict(pg) == {"purposes": ["a", "b"], "edges": [["a", "b"]]}


def test_document_round_trip(hierarchy):
    doc = purpose_graph_to_dict(hierarchy)
    again = purpose_graph_from_dict(doc)
    assert purpose_graph_to_dict(again) == doc
    assert again.hierarchy_line == hierarchy.hierarchy_line


@st.composite
def random_dags(draw):
    """Layered DAGs with random extra skip edges; up to 12 purposes."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = [f"q{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        edges.append((names[parent], names[i]))
        if draw(st.booleans()) and i >= 2:
            extra = draw(st.integers(min_value=0, max_value=i - 1))
            if extra != parent:
                edges.append((names[extra], names[i]))
    return names, edges


@settings(max_examples=80, deadline=None)
@given(random_dags())
def test_random_dag_ranks_match_brute_force(data):
    names, edges = data
    pg = PurposeGraph(names, edges)
    expected = brute_force_ranks(names, edges)
    for p in names:
        assert pg.rank_of(p) == expected[p]


@settings(max_examples=80, deadline=None)
@given(random_dags(), st.integers(min_value=0, max_value=5))
def test_rank_grading_and_split_partition(data, line):
    names, edges = data
    pg = PurposeGraph(names, edges, hierarchy_line=line)
    # every edge strictly increases rank
    for parent, child in edges:
        assert pg.rank_of(parent) < pg.rank_of(child)
    # split is a partition of the input
    high, low = pg.split_static(names)
    assert high | low == frozenset(names)
    assert high & low == frozenset()
    assert all(pg.rank_of(p) <= line for p in high)
    assert all(pg.rank_of(p) > line for p in low)


@settings(max_examples=60, deadline=None)
@given(random_dags())
def test_updown_defaults_cover_full_ancestry(data):
    names, edges = data
    pg = PurposeGraph(names, edges)
    for p in names[: min(4, len(names))]:
        assert pg.updown(p) == pg.ancestors(p) | pg.descendants(p)
        # zero bounds keep only p's own layer, which contains just p itself
        assert pg.updown(p, 0, 0) == {p}
