"""The decide benchmark: one release gate deciding records in a closed loop.

    python3 decidebench/run.py --workload rows_f3 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. One caller in one process, with no threads, sends the next
record only after the previous decision came back, as a release gate does.

A run generates its workload's documents from ``--seed``, measures the
package's memory on one untimed decode (see ``measure_memory``), decodes the
documents again for the timed loop, warms up and then decides a fixed number
of whole passes over the records. Before each pass it decodes the documents
once more under the clock and drops the result; ``setup_s`` is the median of
these decodes, which are spread over the run like the passes.
The number of passes follows from ``--seconds`` and the workload's
``PASS_S``, never from how fast the program runs, so a faster program does
not get more samples. Every decision is checked (see ``checks.py``); a
decision that raises or breaks an invariant counts as failed, takes no part
in the latency figures, and the run goes on.

Every timing is a wall time scaled to a nominal host speed by reference
samples taken between decisions (see ``hostspeed.py``), because the speed of
a shared host moves by tens of percent within seconds; the raw wall-time
figures are printed beside the scaled ones. ``decide_p50_ms`` and
``decide_p90_ms`` are percentiles of the latencies of all decisions that
succeeded and passed their checks: 600 to 2,000 in a 30 s run, so 60 or
more lie beyond the p90. (Percentiles of each record's median over its few
passes spread twice as much from run to run on deep_lineage.)
``decisions_per_s`` is the decisions that succeeded over the summed time of
every ``decide`` call, failed ones included: the throughput of one caller,
garbage collection included, without the time the benchmark spends checking
outputs.

With ``--trace 0`` the last line of output reports the end-to-end metrics.
With ``--trace 1`` half the passes run untraced and half traced, the
per-layer table is printed, spans are written under ``decidebench/out/``
and the last line reports the per-layer metrics, including the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WARMUP_DECISIONS = 3
#: Seconds one untraced pass over each workload's records takes on a 2-core
#: x86-64 VM with Python 3.11. A run makes ``round(seconds / PASS_S)`` passes.
PASS_S = {"rows_f3": 3.3, "deep_lineage": 4.8, "party_algebra": 2.7}

Metrics = dict[str, tuple[float, str]]
#: Maps a timing, given its start and its wall time in ns, to the figure reported.
Scale = Callable[[int, float], float]


def raw(start_ns: int, elapsed_ns: float) -> float:
    return elapsed_ns


@dataclass
class LoopResult:
    """What a timed loop saw: latencies, failures and the first pass's outputs.

    `timings[k]` holds the (start, wall time) in ns of record k's decisions
    that succeeded and passed their checks; `calls` holds those of every
    decision, failed ones included.
    """

    timings: list[list[tuple[int, int]]] = field(default_factory=list)
    calls: list[tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    breaches: list[str] = field(default_factory=list)
    digest: str = ""
    expected: list[frozenset[str] | None] = field(default_factory=list)

    def succeeded(self) -> int:
        return sum(map(len, self.timings))

    def decisions_per_s(self, scale: Scale) -> float:
        """Decisions that succeeded, per second spent in `decide`."""
        return self.succeeded() / (sum(scale(s, e) for s, e in self.calls) / 1e9)

    def merge(self, later: LoopResult) -> None:
        """Add a later loop over the same records, checked against this one's expected sets."""
        for mine, theirs in zip(self.timings, later.timings):
            mine.extend(theirs)
        self.calls += later.calls
        self.attempted += later.attempted
        self.failed += later.failed
        self.errors += later.errors
        self.breaches += later.breaches

    def latencies_ns(self, scale: Scale) -> list[float]:
        """The latency of every decision that succeeded."""
        return [scale(s, e) for t in self.timings for s, e in t]


def import_package() -> None:
    """Import the package from this checkout's src, never from anywhere else."""
    if not (SRC / "provpurpose" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import provpurpose

    if Path(provpurpose.__file__).resolve().parent != SRC / "provpurpose":
        raise SystemExit(f"error: provpurpose imported from {provpurpose.__file__}, not {SRC}")


def warm_up(loaded: Any) -> None:
    """Decide the first records once, outside any timed loop."""
    from provpurpose import engine

    for record, request in list(zip(loaded.records, loaded.requests))[:WARMUP_DECISIONS]:
        try:
            engine.decide(record, request, loaded.parties, loaded.external, loaded.pg, loaded.role_order)
        except Exception:  # the timed loop meets the same record and counts it
            pass


def measure_memory(docs: dict[str, Any]) -> float:
    """Peak MiB the package allocates while decoding the documents and warming up.

    Traced with tracemalloc, which sees only allocations made after it
    starts, so the documents the benchmark generated are not counted. It
    slows the code it traces, so nothing is timed here.
    """
    import workloads

    gc.collect()
    tracemalloc.start()
    try:
        warm_up(workloads.load(docs))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def timed_decode(docs: dict[str, Any]) -> tuple[int, int]:
    """(start, wall time) in ns of one decode of the documents; the decoded objects are then dropped."""
    import workloads

    gc.collect()
    start = time.perf_counter_ns()
    loaded = workloads.load(docs)
    elapsed = time.perf_counter_ns() - start
    del loaded
    gc.collect()
    return start, elapsed


def decide_loop(
    loaded: Any,
    docs: dict[str, Any],
    passes: int,
    expected: list[frozenset[str] | None] | None = None,
    tracer: Any = None,
    host: Any = None,
) -> LoopResult:
    """Decide `passes` whole passes over the records.

    With `host`, a HostSpeed, reference samples fall due between decisions.
    Without `expected`, the first pass is digested and its decided sets
    become the expected ones; every other decision of a record must decide
    the set expected for it. Chain records (see workloads.py) are left out
    of the digest, and a RecursionError on one of them is not an error.
    """
    import checks
    from provpurpose import engine

    result = LoopResult(timings=[[] for _ in docs["records"]])
    digest = checks.Digest() if expected is None else None
    result.expected = [] if expected is None else expected
    attached = [rec["attached_purposes"] for rec in docs["records"]]
    chains = set(docs["chains"])
    pairs = list(zip(loaded.records, loaded.requests))
    parties, external, pg, roles = loaded.parties, loaded.external, loaded.pg, loaded.role_order
    for _ in range(passes):
        for k, (record, request) in enumerate(pairs):
            if tracer is not None:
                tracer.begin_decision(result.attempted)
            result.attempted += 1
            start = time.perf_counter_ns()
            try:
                outcome = engine.decide(record, request, parties, external, pg, roles)
            except Exception as exc:  # a failed decision is counted and the loop goes on
                outcome, error = None, exc
            elapsed = time.perf_counter_ns() - start
            if host is not None:
                host.sample_due()
            result.calls.append((start, elapsed))
            if outcome is None:
                result.failed += 1
                if not (k in chains and isinstance(error, RecursionError)):
                    result.errors.append(f"record {k}: {type(error).__name__}: {error}")
                if digest is not None:
                    if k not in chains:
                        digest.add_error(error)
                    result.expected.append(None)
                continue
            doc = engine.outcome_to_dict(outcome)
            found = checks.violations(doc, attached[k])
            if digest is not None:
                if k not in chains:
                    digest.add(doc)
                result.expected.append(outcome.decided)
            elif result.expected[k] is not None and outcome.decided != result.expected[k]:
                found.append("decided differs from the first pass over the same record")
            if found:
                result.failed += 1
                result.breaches.extend(f"record {k}: {v}" for v in found)
                continue
            result.timings[k].append((start, elapsed))
        if digest is not None:
            result.digest = digest.hexdigest()
            digest = None
    return result


def percentile_ms(latencies_ns: list[float], q: int) -> float:
    """The q-th percentile (1..99) of the latencies, in milliseconds."""
    if len(latencies_ns) < 2:
        return latencies_ns[0] / 1e6
    return statistics.quantiles(latencies_ns, n=100)[q - 1] / 1e6


def end_to_end(loop: LoopResult, setup: list[tuple[int, int]], peak_mb: float, scale: Scale) -> Metrics:
    latencies = loop.latencies_ns(scale)
    return {
        "decisions_per_s": (loop.decisions_per_s(scale), "1/s"),
        "decide_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "decide_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "setup_s": (statistics.median(scale(s, e) for s, e in setup) / 1e9, "s"),
        "peak_mb": (peak_mb, "MiB"),
    }


def untraced_run(docs: dict[str, Any], passes: int) -> tuple[Metrics, LoopResult]:
    import hostspeed
    import workloads

    peak_mb = measure_memory(docs)
    loaded = workloads.load(docs)
    warm_up(loaded)
    host = hostspeed.HostSpeed()
    began = time.perf_counter()
    host.bracket()
    setup = [timed_decode(docs)]
    loop = decide_loop(loaded, docs, 1, host=host)
    for _ in range(passes - 1):
        host.sample_due()
        setup.append(timed_decode(docs))
        loop.merge(decide_loop(loaded, docs, 1, loop.expected, host=host))
    host.bracket()
    timed_s = time.perf_counter() - began
    if not loop.succeeded():
        raise SystemExit("error: no decision succeeded, so there is no latency to report")
    metrics = end_to_end(loop, setup, peak_mb, host.scale)
    wall = end_to_end(loop, setup, peak_mb, raw)
    print(f"end-to-end ({passes} passes in {timed_s:.1f} s; latency percentiles over the n={loop.succeeded()} "
          f"decisions that succeeded; setup median of {len(setup)}; peak_mb traced over one decode and "
          f"{WARMUP_DECISIONS} decisions). Times are scaled to the nominal host speed; the host's "
          f"reference sample took {host.median_ms():.3f} ms (median of {len(host.samples)}) against "
          f"{hostspeed.NOMINAL_NS / 1e6:.3f} ms nominal:")
    print(f"  {'metric':<20} {'scaled':>14} {'wall time':>14}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<20} {value:>14.6f} {wall[name][0]:>14.6f} {unit}")
    print(f"  {'failed_ratio':<20} {loop.failed / loop.attempted:>14.6f} ratio "
          f"({loop.failed} of {loop.attempted})")
    print(f"  {'process_peak_rss':<20} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:>14.6f} "
          f"MiB, the benchmark's documents included")
    return metrics, loop


def traced_run(docs: dict[str, Any], passes: int, workload: str, seed: int) -> tuple[Metrics, LoopResult]:
    import hostspeed
    import tracing
    import workloads

    warm_up(workloads.load(docs))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loaded = workloads.load(docs)
    finally:
        tracer.uninstall()
    half = max(1, passes // 2)
    host = hostspeed.HostSpeed()
    host.bracket()
    untraced = decide_loop(loaded, docs, half, host=host)
    tracer.install()
    try:
        traced = decide_loop(loaded, docs, half, untraced.expected, tracer, host)
    finally:
        tracer.uninstall()
    host.bracket()
    if not untraced.succeeded() or not traced.succeeded():
        raise SystemExit("error: no decision succeeded, so there is no overhead to report")
    metrics = tracer.metrics(traced.attempted, len(docs["records"]))
    before, after = untraced.decisions_per_s(host.scale), traced.decisions_per_s(host.scale)
    metrics["trace.overhead_share"] = (1 - after / before, "ratio")

    spans_path = OUT / f"spans_{workload}_seed{seed}.jsonl"
    written = tracer.write_spans(spans_path)
    print(f"per layer ({traced.attempted} traced decisions; {written} spans in {spans_path.relative_to(ROOT)}; "
          f"layer times are wall times):")
    for layer, moves in tracing.MOVES.items():
        print(f"  [{layer}] should move {moves}")
        for name, (value, unit) in metrics.items():
            if name.split(".")[0] == layer or name.startswith(f"layer.{layer}."):
                mark = "  unmeasured" if name.rsplit(".", 1)[0] in tracer.unmeasured else ""
                print(f"    {name:<50} {value:>14.6f} {unit}{mark}")
    print(f"  tracing overhead: {before:.3f} -> {after:.3f} decisions/s untraced -> traced, "
          f"at the nominal host speed")
    if tracer.unmeasured:
        print(f"  unmeasured (no call site left to wrap): {', '.join(tracer.unmeasured)}")

    untraced.merge(traced)
    return metrics, untraced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop decide benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    docs = workloads.WORKLOADS[args.workload](args.seed)
    problems = []
    if not checks.case_study_matches():
        problems.append("case study decision differs from expected_decision.json")

    passes = max(1, round(args.seconds / PASS_S[args.workload]))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        metrics, loop = traced_run(docs, passes, args.workload, args.seed)
    else:
        metrics, loop = untraced_run(docs, passes)

    pinned = checks.pinned_digest(args.workload, args.seed)
    print(f"first-pass digest {loop.digest}, " + ("not pinned for this seed" if pinned is None else f"pinned {pinned}"))
    if pinned is not None and pinned != loop.digest:
        problems.append("first-pass digest differs from the pinned digest")
    problems.extend(loop.breaches)
    problems.extend(loop.errors)
    for line in problems[:20]:
        print(f"check failed: {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
