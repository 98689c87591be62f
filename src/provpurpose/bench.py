"""Benchmark harness: policy generation timing and merge timing.

Two measurements, both single-threaded and deterministic in what they
generate (wall-clock readings naturally vary):

* per-type policy generation means: each repetition regenerates the
  configured number of policies of every type and the per-policy mean is
  reported per type;
* merge means: the same randomly drawn operand sets are fed to a
  hierarchical merge (each pair checked against the purpose graph, then
  f_dotplus) and to a cross-party merge (F3). Each repetition times both
  loops over all the operands, and each mean is taken from the median
  repetition's loop, so a stall of the host inside one loop of about 1 ms
  does not decide which merge reads slower.

Absolute numbers depend on the machine; only shapes and orderings are
meaningful.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Sequence

from .algebra import InternalFunction, apply_internal, split_result
from .external import ExternalFunction, PartyResult, apply_external
from .purposes import PurposeSet
from .synth import BenchConfig, generate_policy, partition_by_mix, random_purpose_graph

_N_MERGE_PAIRS = 200


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    type_counts: tuple[int, int, int, int]
    generation_means: dict[int, float]
    internal_mean: float
    external_mean: float
    total_seconds: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.config.seed,
            "n_purposes": self.config.n_purposes,
            "n_policies": self.config.n_policies,
            "repetitions": self.config.repetitions,
            "type_counts": list(self.type_counts),
            "generation_mean_seconds": {
                f"type{t}": self.generation_means[t] for t in (1, 2, 3, 4)
            },
            "algebra_mean_seconds": {
                "internal": self.internal_mean,
                "external": self.external_mean,
            },
            "total_seconds": self.total_seconds,
        }


def bench_policy_generation(
    config: BenchConfig, rng: random.Random | None = None
) -> dict[int, float]:
    """Mean seconds to generate one policy, per type."""
    rng = rng or random.Random(config.seed)
    pg = random_purpose_graph(rng, config.n_purposes)
    pool = sorted(pg.purposes)
    counts = partition_by_mix(config.n_policies, config.type_mix)
    totals = {t: 0.0 for t in (1, 2, 3, 4)}
    generated = {t: 0 for t in (1, 2, 3, 4)}
    for _ in range(config.repetitions):
        for ptype, count in zip((1, 2, 3, 4), counts):
            start = time.perf_counter()
            for i in range(count):
                generate_policy(rng, ptype, pool, f"bench_{ptype}_{i}")
            totals[ptype] += time.perf_counter() - start
            generated[ptype] += count
    return {t: (totals[t] / generated[t] if generated[t] else 0.0) for t in (1, 2, 3, 4)}


def _operand_pairs(
    rng: random.Random, pool: Sequence[str], n_pairs: int
) -> list[tuple[PurposeSet, PurposeSet, PurposeSet, PurposeSet]]:
    def draw() -> PurposeSet:
        k = rng.randint(0, min(6, len(pool)))
        return frozenset(rng.sample(pool, k)) if k else frozenset()

    return [(draw(), draw(), draw(), draw()) for _ in range(n_pairs)]


def bench_algebras(
    config: BenchConfig, rng: random.Random | None = None
) -> tuple[float, float]:
    """(internal mean, external mean) seconds per merge over shared operands,
    each from the median of the repetitions' loop times.

    The internal timing covers `split_result` on both operands, which checks
    their members against the purpose graph, plus the f_dotplus merge (one
    rule on both sides of the hierarchy line, so no cut); the external timing
    covers one F3 application on the same sets.
    """
    rng = rng or random.Random(config.seed)
    pg = random_purpose_graph(rng, config.n_purposes)
    pool = sorted(pg.purposes)
    pairs = _operand_pairs(rng, pool, _N_MERGE_PAIRS)
    party_pairs = [
        (PartyResult("m", ap1, pp1), PartyResult("n", ap2, pp2))
        for ap1, pp1, ap2, pp2 in pairs
    ]
    internal_loops: list[float] = []
    external_loops: list[float] = []
    for _ in range(config.repetitions):
        start = time.perf_counter()
        for ap1, pp1, ap2, pp2 in pairs:
            si = split_result(pg, ap1, pp1)
            sj = split_result(pg, ap2, pp2)
            apply_internal(InternalFunction.DOTPLUS, si, sj)
        internal_loops.append(time.perf_counter() - start)
        start = time.perf_counter()
        for sm, sn in party_pairs:
            apply_external(ExternalFunction.F3, sm, sn, pg)
        external_loops.append(time.perf_counter() - start)
    n = len(pairs)
    return statistics.median(internal_loops) / n, statistics.median(external_loops) / n


def run_bench(config: BenchConfig) -> BenchReport:
    """Run both timing suites; `config.n_rows` plays no part in them."""
    started = time.perf_counter()
    rng = random.Random(config.seed)
    generation_means = bench_policy_generation(config, rng)
    internal_mean, external_mean = bench_algebras(config, rng)
    counts = partition_by_mix(config.n_policies, config.type_mix)
    return BenchReport(
        config=config,
        type_counts=(counts[0], counts[1], counts[2], counts[3]),
        generation_means=generation_means,
        internal_mean=internal_mean,
        external_mean=external_mean,
        total_seconds=time.perf_counter() - started,
    )
