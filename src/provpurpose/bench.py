"""Benchmark harness: policy generation timing and merge timing.

Each run draws one purpose graph from its seed and takes two measurements
over it, both single-threaded and deterministic in what they generate
(wall-clock readings naturally vary):

* per-type policy generation means: each repetition regenerates the
  configured number of policies, in the even type mix that `gen_synthetic`
  uses, and the per-policy mean is reported per type;
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
from typing import Any, Sequence

from .algebra import InternalFunction, apply_internal, split_result
from .external import ExternalFunction, PartyResult, apply_external
from .purposes import PurposeGraph
from .synth import _TYPE_MIX, BenchConfig, _sample_purposes, generate_policy, partition_by_mix, random_purpose_graph

_TYPES = (1, 2, 3, 4)
_N_MERGE_PAIRS = 200


def bench_policy_generation(config: BenchConfig, rng: random.Random, pool: Sequence[str]) -> dict[int, float]:
    """Mean seconds to generate one policy over `pool`, per type."""
    counts = partition_by_mix(config.n_policies, _TYPE_MIX)
    totals = dict.fromkeys(_TYPES, 0.0)
    for _ in range(config.repetitions):
        for ptype, count in zip(_TYPES, counts):
            start = time.perf_counter()
            for i in range(count):
                generate_policy(rng, ptype, pool, f"bench_{ptype}_{i}")
            totals[ptype] += time.perf_counter() - start
    return {t: totals[t] / (config.repetitions * n) if n else 0.0 for t, n in zip(_TYPES, counts)}


def bench_algebras(config: BenchConfig, rng: random.Random, pg: PurposeGraph) -> tuple[float, float]:
    """(internal mean, external mean) seconds per merge over shared operands,
    each from the median of the repetitions' loop times.

    The internal timing covers `split_result` on both operands, which checks
    their members against the purpose graph, plus the f_dotplus merge (one
    rule on both sides of the hierarchy line, so no cut); the external timing
    covers one F3 application on the same sets.
    """
    pool = sorted(pg.purposes)
    pairs = [tuple(_sample_purposes(rng, pool, 0, 6) for _ in range(4)) for _ in range(_N_MERGE_PAIRS)]
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
    return statistics.median(internal_loops) / _N_MERGE_PAIRS, statistics.median(external_loops) / _N_MERGE_PAIRS


def run_bench(config: BenchConfig) -> dict[str, Any]:
    """Draw one purpose graph, time both measurements over it and return the report document.

    `config.n_rows` plays no part in them.
    """
    started = time.perf_counter()
    rng = random.Random(config.seed)
    pg = random_purpose_graph(rng, config.n_purposes)
    generation = bench_policy_generation(config, rng, sorted(pg.purposes))
    internal, external = bench_algebras(config, rng, pg)
    return {
        "seed": config.seed,
        "n_purposes": config.n_purposes,
        "n_policies": config.n_policies,
        "repetitions": config.repetitions,
        "type_counts": partition_by_mix(config.n_policies, _TYPE_MIX),
        "generation_mean_seconds": {f"type{t}": generation[t] for t in _TYPES},
        "algebra_mean_seconds": {"internal": internal, "external": external},
        "total_seconds": time.perf_counter() - started,
    }
