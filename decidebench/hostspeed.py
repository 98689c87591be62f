"""The host's speed, sampled while the benchmark runs, so that runs compare.

The benchmark runs on a few cores of a shared host. Other tenants' load
moves the speed of those cores by tens of percent within seconds: on a
2-core x86-64 VM, the one-second median of a pure-Python reference sample
ranged over +-30% within one minute, and raw figures of ten runs of the same
code spread by up to 32% of their median between the quartiles.

``HostSpeed`` therefore times a fixed pure-Python reference sample (graph
walks, frozenset algebra and dict building, the kinds of work ``decide``
does) every ``EVERY_NS`` between decisions, and scales each timing by
``NOMINAL_NS`` over the median of the ``WINDOW`` samples nearest to it in
time. A scaled timing reads as the wall time on a host where the reference
sample takes ``NOMINAL_NS``. Over 28 to 40 passes in one process, with a
sample every 30 ms, scaling cut the quartile spread of pass times from
16-19% to 3-5% of their median on rows_f3 and party_algebra, and from 14%
to 5% on deep_lineage, whose searches over large graphs follow the host's
speed less closely. A sample every 100 ms keeps the cost low: a decision
right after a sample runs a few percent slower, its caches cooled. The
reference sample never calls the package, so a change to the package moves
the scaled figures as it moves the wall times.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

#: A typical median reference sample, in ns, on the 2-core x86-64 VM (Python 3.11) the
#: benchmark was tuned on; any fixed value would do, as long as it never changes.
NOMINAL_NS = 1_400_000
#: A reference sample is taken after the first decision that ends this long after the last one.
EVERY_NS = 100_000_000
#: Number of samples, nearest in time, whose median gives the host speed at a moment.
WINDOW = 4


def _reference_state() -> tuple[list[str], dict[str, list[str]], list[frozenset[str]]]:
    rng = random.Random("decidebench reference")
    names = [f"n{i:04d}" for i in range(600)]
    successors: dict[str, list[str]] = {n: [] for n in names}
    for i, name in enumerate(names[1:], 1):
        for parent in rng.sample(names[:i], min(i, rng.randint(1, 3))):
            successors[parent].append(name)
    sets = [frozenset(rng.sample(names, rng.randint(20, 200))) for _ in range(24)]
    return names, successors, sets


def _reference_work(state: tuple[list[str], dict[str, list[str]], list[frozenset[str]]]) -> int:
    names, successors, sets = state
    total = 0
    for start in names[:12:4]:
        seen = {start}
        stack = [start]
        while stack:
            for w in successors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += len(seen)
    acc: frozenset[str] = frozenset()
    for a, b in zip(sets, sets[1:]):
        acc = (acc | (a & b)) - (a - b)
        total += len(acc)
    built = {(n, i % 7): sorted(successors[n]) for i, n in enumerate(names)}
    return total + len(built)


class HostSpeed:
    """Reference samples taken during a run, and the scaling they give."""

    def __init__(self) -> None:
        self._state = _reference_state()
        self.starts: list[int] = []
        self.samples: list[int] = []
        self._last = 0

    def sample(self) -> None:
        """Time one reference sample now."""
        start = time.perf_counter_ns()
        _reference_work(self._state)
        end = time.perf_counter_ns()
        self.starts.append(start)
        self.samples.append(end - start)
        self._last = end

    def sample_due(self) -> None:
        """Take a sample if the last one ended at least EVERY_NS ago."""
        if time.perf_counter_ns() - self._last >= EVERY_NS:
            self.sample()

    def bracket(self) -> None:
        """Take WINDOW samples in a row, before the first or after the last timing of a run."""
        for _ in range(WINDOW):
            self.sample()

    def scale(self, start_ns: int, elapsed_ns: float) -> float:
        """`elapsed_ns`, measured from `start_ns`, at the nominal host speed."""
        i = bisect.bisect(self.starts, start_ns)
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        return elapsed_ns * NOMINAL_NS / statistics.median(self.samples[lo : lo + WINDOW])

    def median_ms(self) -> float:
        return statistics.median(self.samples) / 1e6
