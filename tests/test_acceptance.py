"""Acceptance gate: nine checks, each printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live; under
plain ``pytest`` they appear in the captured output of failing checks.
"""

import itertools
import random
import sys
import time

import pytest

from provpurpose import (
    AttrCondition,
    BasicOp,
    BenchConfig,
    BinaryOp,
    DataRecord,
    EmptyPurposeSetError,
    ExternalFunction,
    FunctionCall,
    InternalFunction,
    MatchValue,
    NullCondition,
    PartyConfig,
    PartyResult,
    PrecedenceKind,
    Predicate,
    ProvenanceGraph,
    PurposeGraph,
    SetRef,
    TreeBranch,
    TreeLeaf,
    TreeOp,
    VertexCondition,
    VertexType,
    apply_external,
    apply_internal,
    decide,
    eval_access_tree,
    eval_atomic,
    load_graph,
    load_policy,
    load_purpose_graph,
    load_request,
    load_role_order,
    match_and,
    match_or,
    match_partition,
    op_difference,
    op_intersection,
    op_precedence,
    op_subtraction,
    op_union,
    parse_fida,
    print_fida,
    run_bench,
    split_result,
)
from conftest import ALGEBRA_EDGES, ALGEBRA_PURPOSES, ALGEBRA_UNIVERSE, CASE_STUDY
from oracles import (
    brute_force_ranks,
    o_inter,
    o_minus,
    o_precedence,
    o_symdiff,
    o_union,
    oracle_external,
    oracle_fold_tree,
    oracle_internal,
    oracle_match_partition,
)
from randcases import random_partition, random_provenance_graph


def _report(n: int, ok: bool, detail: str) -> None:
    # write through the real stdout so the line survives pytest's capture
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}", file=sys.__stdout__)
    assert ok, f"criterion {n}: {detail}"


def _subsets(pool):
    out = []
    for r in range(len(pool) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(pool, r))
    return out


# -- 1: case-study decision ------------------------------------------------------

def test_criterion_1_case_study_decision():
    graph = load_graph(str(CASE_STUDY / "graph.json"))
    pg = load_purpose_graph(str(CASE_STUDY / "purposes.json"))
    request, attached = load_request(str(CASE_STUDY / "request.json"))
    role_order = load_role_order(str(CASE_STUDY / "roles.json"))
    parties = [
        PartyConfig(
            "source",
            (load_policy(str(CASE_STUDY / "source_policy.json"), "source_policy"),),
        ),
        PartyConfig(
            "repository",
            (load_policy(str(CASE_STUDY / "repository_policy.json"), "repository_policy"),),
        ),
    ]
    record = DataRecord(graph, category="assignment", attached_purposes=attached)
    start = time.perf_counter()
    outcome = decide(record, request, parties, "F3", pg, role_order)
    elapsed = time.perf_counter() - start
    ok = outcome.decided == frozenset({"education"})
    _report(
        1,
        ok,
        f"decided={sorted(outcome.decided)} (want ['education']) in {elapsed:.4f}s",
    )


# -- 2: purpose-DAG window examples ------------------------------------------------

def test_criterion_2_purpose_windows(hierarchy):
    cases = [
        ("ancestors(Analysis)", hierarchy.ancestors("Analysis"),
         {"Analysis", "Record", "Admin", "General Purpose"}),
        ("partial_ancestors(Analysis, 3)", hierarchy.partial_ancestors("Analysis", 3),
         {"Analysis", "Record", "Admin"}),
        ("descendants(Admin)", hierarchy.descendants("Admin"),
         {"Admin", "Audit", "Record", "Analysis", "Service-Maintain", "Service-Offers"}),
        ("partial_descendants(Admin, 3)", hierarchy.partial_descendants("Admin", 3),
         {"Admin", "Record", "Analysis"}),
        ("updown(Record)", hierarchy.updown("Record"),
         {"General Purpose", "Admin", "Record", "Analysis", "Service-Maintain", "Service-Offers"}),
    ]
    bad = [name for name, got, want in cases if got != want]
    _report(2, not bad, f"5 window sets reproduced exactly" if not bad else f"mismatches: {bad}")


# -- 3: two-stakeholder high/low merge ----------------------------------------------

def test_criterion_3_high_low_merge():
    pg = PurposeGraph(
        ["data analysis", "auditing", "research", "education", "marketing"],
        [("data analysis", "research"), ("data analysis", "education"), ("auditing", "marketing")],
        hierarchy_line=0,
    )
    s1 = split_result(pg, {"data analysis", "research", "education"}, ())
    s2 = split_result(pg, {"auditing", "education", "marketing"}, ())
    out = apply_internal(InternalFunction.DCAP, s1, s2)
    high, low = pg.split_static(out.ap)
    ok = (
        high == {"data analysis", "auditing"}
        and low == {"education"}
        and pg.split_static(out.pp) == (frozenset(), frozenset())
    )
    _report(
        3,
        ok,
        f"high={sorted(high)} low={sorted(low)} "
        "(want high=['auditing', 'data analysis'] low=['education'])",
    )


# -- 4: exhaustive oracle equivalence ------------------------------------------------

def test_criterion_4_algebra_oracle_equivalence(algebra_dag):
    start = time.perf_counter()
    universe = list(ALGEBRA_UNIVERSE)
    subsets = _subsets(universe)  # 16
    ranks = brute_force_ranks(ALGEBRA_PURPOSES, ALGEBRA_EDGES)
    mismatches = []

    basic = [
        ("+", op_union, o_union),
        ("&", op_intersection, o_inter),
        ("^-", op_difference, o_symdiff),
        ("-", op_subtraction, o_minus),
    ]
    for token, impl, oracle in basic:
        for a, b in itertools.product(subsets, subsets):
            if impl(a, b) != oracle(universe, a, b):
                mismatches.append(f"basic {token} on {sorted(a)},{sorted(b)}")

    nonempty = [s for s in subsets if s]
    for kind in PrecedenceKind:
        for a, b in itertools.product(nonempty, nonempty):
            got = op_precedence(kind, a, b, algebra_dag)
            want = o_precedence(kind.value, a, b, ranks, universe)
            if got != want:
                mismatches.append(f"{kind.value} on {sorted(a)},{sorted(b)}")
        for a, b in ((frozenset(), nonempty[0]), (nonempty[0], frozenset())):
            try:
                op_precedence(kind, a, b, algebra_dag)
                mismatches.append(f"{kind.value} accepted an empty operand")
            except EmptyPurposeSetError:
                pass

    highs = [p for p in universe if ranks[p] <= 2]
    lows = [p for p in universe if ranks[p] > 2]
    high_subsets = _subsets(highs)  # 4
    low_subsets = _subsets(lows)  # 4
    states = [
        (ha, hp, la, lp)
        for ha in high_subsets
        for hp in high_subsets
        for la in low_subsets
        for lp in low_subsets
    ]  # 256
    operands = [split_result(algebra_dag, ha | la, hp | lp) for ha, hp, la, lp in states]
    n_internal_pairs = len(states) ** 2
    for fn in InternalFunction:
        bad = 0
        for i, si in enumerate(operands):
            state_i = states[i]
            for j, sj in enumerate(operands):
                got = apply_internal(fn, si, sj)
                want = oracle_internal(fn.value, state_i, states[j], universe)
                ha, la = algebra_dag.split_static(got.ap)
                hp, lp = algebra_dag.split_static(got.pp)
                if (ha, hp, la, lp) != want:
                    bad += 1
        if bad:
            mismatches.append(f"internal {fn.value}: {bad} of {n_internal_pairs} pairs")

    party_states = [(ap, pp) for ap in subsets for pp in subsets]  # 256
    party_m = [PartyResult("m", ap, pp) for ap, pp in party_states]
    party_n = [PartyResult("n", ap, pp) for ap, pp in party_states]
    for fn in ExternalFunction:
        bad = 0
        for i, sm in enumerate(party_m):
            ap_m, pp_m = party_states[i]
            for j, sn in enumerate(party_n):
                ap_n, pp_n = party_states[j]
                got = apply_external(fn, sm, sn, algebra_dag)
                want = oracle_external(fn.value, ap_m, pp_m, ap_n, pp_n, universe, ranks)
                if got != want:
                    bad += 1
        if bad:
            mismatches.append(f"external {fn.value}: {bad} of {n_internal_pairs} pairs")

    elapsed = time.perf_counter() - start
    ok = not mismatches
    detail = (
        f"4 basic ops (256 pairs each), 4 precedence kinds (225 pairs each), "
        f"13 internal fns ({n_internal_pairs} pairs each), 8 external fns "
        f"({n_internal_pairs} pairs each); "
        + (f"mismatches: {mismatches[:3]}; " if mismatches else "0 mismatches; ")
        + f"{elapsed:.1f}s"
    )
    _report(4, ok, detail)


# -- 5: partition matching vs exhaustive embeddings -----------------------------------

def test_criterion_5_matching_oracle_equivalence():
    rng = random.Random(2024)
    mismatches = 0
    oversize = 0
    counts = [0, 0, 0, 0]
    for _ in range(500):
        g = random_provenance_graph(rng, max_main=4)
        if len(g.vertices) > 8:
            oversize += 1
            continue
        pattern = random_partition(rng, g)
        got = match_partition(pattern, g)
        want = oracle_match_partition(pattern, g)
        counts[int(got)] += 1
        if int(got) != want:
            mismatches += 1
    ok = mismatches == 0 and oversize == 0
    _report(
        5,
        ok,
        f"500 random cases (graph <= 8 vertices, pattern <= 4): {mismatches} mismatches; "
        f"value spread none/types/names/full = {counts}",
    )


# -- 6: four-valued lattice laws and tree evaluation ----------------------------------

def test_criterion_6_lattice_and_trees():
    values = list(MatchValue)
    problems = []
    for a, b in itertools.product(values, values):
        if match_and(a, b) != match_and(b, a) or match_or(a, b) != match_or(b, a):
            problems.append(f"commutativity {a},{b}")
        if match_and(a, match_or(a, b)) != a or match_or(a, match_and(a, b)) != a:
            problems.append(f"absorption {a},{b}")
    for a, b, c in itertools.product(values, values, values):
        if match_and(match_and(a, b), c) != match_and(a, match_and(b, c)):
            problems.append(f"AND associativity {a},{b},{c}")
        if match_or(match_or(a, b), c) != match_or(a, match_or(b, c)):
            problems.append(f"OR associativity {a},{b},{c}")
    for a in values:
        if match_and(a, a) != a or match_or(a, a) != a:
            problems.append(f"idempotence {a}")

    g = ProvenanceGraph()
    g.add_vertex(VertexType.AGENT, "alice", vid="alice")
    g.add_vertex(VertexType.ARTIFACT, "report", attrs={"size": 4}, vid="report")
    leaf_conditions = [
        NullCondition(),
        VertexCondition(VertexType.ARTIFACT, "report"),
        AttrCondition(VertexType.ARTIFACT, "report", "size", Predicate.GT, 100),
        VertexCondition(VertexType.ARTIFACT, "ledger"),
        VertexCondition(VertexType.PROCESS, "ingest"),
    ]
    leaf_values = [eval_atomic(c, g) for c in leaf_conditions]
    if sorted(set(leaf_values)) != sorted(MatchValue):
        problems.append(f"leaf pool covers {sorted(set(leaf_values))}, not all four values")

    rng = random.Random(66)

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            i = rng.randrange(len(leaf_conditions))
            return TreeLeaf(leaf_conditions[i]), ("leaf", i)
        op = rng.choice((TreeOp.AND, TreeOp.OR))
        pairs = [build(depth - 1) for _ in range(rng.randint(1, 3))]
        return (
            TreeBranch(op, tuple(t for t, _ in pairs)),
            (op.value, [s for _, s in pairs]),
        )

    tree_mismatches = 0
    for _ in range(200):
        tree, shape = build(4)
        if eval_access_tree(tree, g) != oracle_fold_tree(shape, leaf_values):
            tree_mismatches += 1
    if tree_mismatches:
        problems.append(f"{tree_mismatches} tree evaluations differ from the naive fold")

    _report(
        6,
        not problems,
        "lattice laws on all 4x4(x4) combinations and 200 random trees (depth <= 4) agree"
        if not problems
        else f"problems: {problems[:3]}",
    )


# -- 7: parser precedence and round trips ----------------------------------------------

def test_criterion_7_parser_precedence():
    worked = parse_fida("S1 & S2 + S3 ▷ S4")
    grouped = parse_fida("(S1 & S2) + (S3 ▷ S4)")
    printed = print_fida(worked)
    problems = []
    if worked != grouped:
        problems.append("worked example groups differently")
    if printed != "(S1 & S2) + (S3 upmax S4)":
        problems.append(f"printed form {printed!r}")

    rng = random.Random(77)
    pool = ["S1", "S2", "S3", "Pol_a", "x9"]
    fn_names = [fn.value for fn in InternalFunction]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return SetRef(rng.choice(pool))
        roll = rng.random()
        if roll < 0.25:
            name = rng.choice(fn_names)
            return FunctionCall(name, (random_expr(depth - 1), random_expr(depth - 1)))
        if roll < 0.35:
            k = rng.randint(2, 4)
            return FunctionCall("f_nary", tuple(random_expr(depth - 1) for _ in range(k)))
        op = rng.choice(list(BasicOp))
        return BinaryOp(op, random_expr(depth - 1), random_expr(depth - 1))

    fixpoints = 0
    for _ in range(100):
        expr = random_expr(4)
        text = print_fida(expr)
        if parse_fida(text) == expr and print_fida(parse_fida(text)) == text:
            fixpoints += 1
    if fixpoints != 100:
        problems.append(f"only {fixpoints}/100 round trips are fixpoints")

    _report(
        7,
        not problems,
        f"worked example prints as {printed!r}; 100/100 print-parse round trips are fixpoints"
        if not problems
        else f"problems: {problems}",
    )


# -- 8: operator symmetry -----------------------------------------------------------------

def test_criterion_8_symmetry(algebra_dag):
    universe = list(ALGEBRA_UNIVERSE)
    subsets = _subsets(universe)
    problems = []
    for token, impl in (("+", op_union), ("&", op_intersection), ("^-", op_difference)):
        for a, b in itertools.product(subsets, subsets):
            if impl(a, b) != impl(b, a):
                problems.append(f"{token} not symmetric on {sorted(a)},{sorted(b)}")
    nonempty = [s for s in subsets if s]
    for kind in PrecedenceKind:
        for a, b in itertools.product(nonempty, nonempty):
            if op_precedence(kind, a, b, algebra_dag) != op_precedence(kind, b, a, algebra_dag):
                problems.append(f"{kind.value} not symmetric on {sorted(a)},{sorted(b)}")

    wa, wb = frozenset({"high1"}), frozenset({"high1", "high2"})
    forward, backward = op_subtraction(wa, wb), op_subtraction(wb, wa)
    if forward == backward:
        problems.append("subtraction witness failed to differ")

    _report(
        8,
        not problems,
        "union/intersection/symmetric-difference and all 4 precedence kinds commute "
        f"on every pair; subtraction witness {sorted(wa)} vs {sorted(wb)}: "
        f"{sorted(forward)} != {sorted(backward)}"
        if not problems
        else f"problems: {problems[:3]}",
    )


# -- 9: benchmark shape -----------------------------------------------------------------

def test_criterion_9_benchmark_shape():
    start = time.perf_counter()
    doc = run_bench(BenchConfig())
    elapsed = time.perf_counter() - start
    gen = doc["generation_mean_seconds"]
    alg = doc["algebra_mean_seconds"]
    problems = []
    if set(gen) != {"type1", "type2", "type3", "type4"}:
        problems.append(f"generation means keyed {sorted(gen)}")
    if set(alg) != {"internal", "external"}:
        problems.append(f"algebra means keyed {sorted(alg)}")
    if not alg["internal"] > alg["external"]:
        problems.append(
            f"internal mean {alg['internal']:.3e} not above external {alg['external']:.3e}"
        )
    if not gen["type4"] >= gen["type1"]:
        problems.append(f"type4 mean {gen['type4']:.3e} below type1 {gen['type1']:.3e}")
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s")
    _report(
        9,
        not problems,
        f"seed 42 defaults: 4 generation means, 2 algebra means, "
        f"internal {alg['internal']:.2e}s > external {alg['external']:.2e}s, "
        f"type4 {gen['type4']:.2e}s >= type1 {gen['type1']:.2e}s, {elapsed:.1f}s (limit 120s)"
        if not problems
        else f"problems: {problems}; {elapsed:.1f}s",
    )
