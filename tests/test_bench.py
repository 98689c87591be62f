"""Synthetic workload generation and the timing harness (shape only)."""

import random

import pytest

from provpurpose import (
    BenchConfig,
    ConfigurationError,
    NUMERIC_COLUMNS,
    STRING_COLUMNS,
    STRING_LENGTH,
    VertexType,
    bench,
    bench_algebras,
    bench_policy_generation,
    gen_synthetic,
    partition_by_mix,
    random_purpose_graph,
    run_bench,
)

TINY = BenchConfig(seed=7, n_purposes=24, n_rows=6, n_policies=12, repetitions=1)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        BenchConfig(repetitions=0)
    with pytest.raises(ConfigurationError):
        BenchConfig(n_purposes=1)


def test_partition_by_mix_sums_exactly():
    assert partition_by_mix(400, (0.25, 0.25, 0.25, 0.25)) == [100, 100, 100, 100]
    assert sum(partition_by_mix(10, (0.33, 0.33, 0.17, 0.17))) == 10
    assert partition_by_mix(3, (0.25, 0.25, 0.25, 0.25)) == [1, 1, 1, 0]
    assert partition_by_mix(0, (0.25, 0.25, 0.25, 0.25)) == [0, 0, 0, 0]
    assert partition_by_mix(7, (1.0, 0.0, 0.0, 0.0)) == [7, 0, 0, 0]


def test_random_purpose_graph_is_layered():
    rng = random.Random(3)
    pg = random_purpose_graph(rng, 30)
    assert len(pg.purposes) == 30
    assert pg.rank_of("p000") == 0
    assert pg.hierarchy_line is not None
    # one or two parents each, all exactly one layer up
    for p in sorted(pg.purposes):
        if p == "p000":
            continue
        parents = pg.parents(p)
        assert 1 <= len(parents) <= 2
        assert all(pg.rank_of(q) == pg.rank_of(p) - 1 for q in parents)


def test_rows_follow_relational_shape():
    data = gen_synthetic(TINY)
    assert len(data.rows) == 6
    for row in data.rows:
        assert set(row) == set(NUMERIC_COLUMNS) | set(STRING_COLUMNS)
        for c in NUMERIC_COLUMNS:
            assert isinstance(row[c], int) and 0 <= row[c] < 1_000_000
        for c in STRING_COLUMNS:
            assert isinstance(row[c], str) and len(row[c]) == STRING_LENGTH


def test_row_graphs_validate_and_carry_attributes():
    data = gen_synthetic(TINY)
    assert len(data.graphs) == len(data.rows)
    for i, (row, g) in enumerate(zip(data.rows, data.graphs)):
        assert g.validate().ok
        (art,) = [v for v in g.main_vertices() if v.vtype is VertexType.ARTIFACT]
        assert art.name == f"row_{i}"
        assert g.attributes_of(art.id) == dict(row)


def test_policy_mix_and_type_invariants():
    data = gen_synthetic(BenchConfig(seed=5, n_purposes=40, n_rows=2, n_policies=40, repetitions=1))
    by_type = {t: [p for p in data.policies if p.ptype == t] for t in (1, 2, 3, 4)}
    assert [len(by_type[t]) for t in (1, 2, 3, 4)] == [10, 10, 10, 10]
    for p in by_type[1]:
        assert p.ap and not p.pp and p.subjects is None and p.categories is None
    for p in by_type[2]:
        assert p.pp and not p.ap
    for p in by_type[4]:
        assert p.subjects is not None or p.categories is not None
    ids = [p.id for p in data.policies]
    assert len(set(ids)) == len(ids)


def test_same_seed_same_dataset():
    from provpurpose import graph_to_dict

    a = gen_synthetic(TINY)
    b = gen_synthetic(TINY)
    assert a.rows == b.rows
    assert a.policies == b.policies
    assert [graph_to_dict(g) for g in a.graphs] == [graph_to_dict(g) for g in b.graphs]
    c = gen_synthetic(BenchConfig(seed=8, n_purposes=24, n_rows=6, n_policies=12, repetitions=1))
    assert c.rows != a.rows


def test_generation_and_algebra_benches_return_means():
    rng = random.Random(TINY.seed)
    pg = random_purpose_graph(rng, TINY.n_purposes)
    means = bench_policy_generation(TINY, rng, sorted(pg.purposes))
    assert set(means) == {1, 2, 3, 4}
    assert all(v >= 0.0 for v in means.values())
    internal, external = bench_algebras(TINY, rng, pg)
    assert internal >= 0.0 and external >= 0.0


def test_run_bench_report_shape():
    doc = run_bench(TINY)
    assert doc["seed"] == 7
    assert doc["type_counts"] == [3, 3, 3, 3]
    assert set(doc["generation_mean_seconds"]) == {"type1", "type2", "type3", "type4"}
    assert set(doc["algebra_mean_seconds"]) == {"internal", "external"}
    assert doc["total_seconds"] > 0


def test_run_bench_draws_one_purpose_graph(monkeypatch):
    """Both measurements run over the one purpose graph the run draws."""
    drawn = []
    draw = bench.random_purpose_graph
    monkeypatch.setattr(bench, "random_purpose_graph", lambda rng, n: drawn.append(n) or draw(rng, n))
    run_bench(TINY)
    assert drawn == [TINY.n_purposes]
