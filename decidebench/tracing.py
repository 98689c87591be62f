"""Per-layer spans recorded from outside the package.

The tracer never edits the package. It rebinds the module attributes that
the package looks up at call time (``engine.evaluate_policy``,
``policy.match_partition``, ``PurposeGraph.split_static`` and so on) to
wrappers that record a span around each call, and puts the originals back
when the traced run ends. A span has a name, start, end, parent span and
decision id. Aggregates (calls, total and self time, counters) cover every
span; raw spans are kept for whole decisions until a cap is reached and are
written out at the end of the run.

A layer is a package module, and a span's layer is the prefix of its name.
If a later refactor removes every attribute a span name wraps, that name is
reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

# span name -> (attributes that route calls to it, "module:Attr" or "module:Class.attr")
SITES: dict[str, tuple[str, ...]] = {
    "engine.decide": ("engine:decide",),
    "policy.evaluate_policy": ("engine:evaluate_policy",),
    "policy.guards_pass": ("policy:guards_pass",),
    "policy.eval_access_tree": ("policy:eval_access_tree",),
    "matching.match_partition": ("policy:match_partition", "matching:match_partition"),
    "matching.match_path": ("policy:match_path",),
    "matching.eval_atomic": ("policy:eval_atomic",),
    "algebra.parse_fida": ("engine:parse_fida", "external:parse_fida"),
    "algebra.split_result": ("engine:split_result",),
    "algebra.eval_fida": ("engine:eval_fida",),
    "algebra.apply_internal": ("algebra:apply_internal",),
    "purposes.split_static": ("purposes:PurposeGraph.split_static",),
    "purposes.check_members": ("purposes:PurposeGraph.check_members",),
    "external.merge_parties": ("engine:merge_parties",),
    "external.apply_external": ("external:apply_external",),
    "external.precedence_total": ("external:precedence_total",),
    "provenance.graph_from_dict": ("provenance:graph_from_dict",),
    "provenance.validate": ("provenance:ProvenanceGraph.validate",),
}

#: Spans timed during set-up; their metrics are per decoded graph.
SETUP_SPANS = ("provenance.graph_from_dict", "provenance.validate")
DECISION_LAYERS = ("engine", "policy", "matching", "algebra", "purposes", "external")

# A direct child of engine.decide belongs to one of decide's four stages.
STAGE_OF = {
    "policy.evaluate_policy": "policy_evaluation",
    "algebra.split_result": "internal_merge",
    "algebra.parse_fida": "internal_merge",
    "algebra.eval_fida": "internal_merge",
    "external.merge_parties": "external_merge",
    "purposes.check_members": "attached",
}
STAGES = ("policy_evaluation", "internal_merge", "external_merge", "attached")

#: Which end-to-end metric each layer's figures should move, and on which workload.
MOVES = {
    "engine": "decisions_per_s on all workloads",
    "policy": "decide_p50_ms on rows_f3",
    "matching": "decide_p50_ms, decide_p90_ms on deep_lineage (no change on party_algebra)",
    "algebra": "decisions_per_s on party_algebra, rows_f3 (setup_s may rise)",
    "purposes": "decisions_per_s on party_algebra, rows_f3 (setup_s may rise)",
    "external": "decisions_per_s on party_algebra",
    "provenance": "setup_s, peak_mb on deep_lineage",
}

#: Raw spans are kept for whole decisions until this many have been recorded.
RAW_SPAN_CAP = 50_000

_SRC = "provpurpose"
# frame layout on the tracer's stack
_NAME, _START, _CHILD, _SPAN, _GUARDS_FAILED = range(5)


class Tracer:
    """Aggregates spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names = list(SITES)
        self._index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.stage_ns = dict.fromkeys(STAGES, 0)
        self.counters = dict.fromkeys(
            ("applicable", "guard_failed_tree_evals", "partition_full", "partition_searches", "vertices"), 0
        )
        self.unmeasured: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.recording = True
        self.decision = -1
        self._stack: list[list[Any]] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._epoch = time.perf_counter_ns()
        self._decide = self._index["engine.decide"]
        self._evaluate = self._index["policy.evaluate_policy"]
        self._after: dict[int, Callable[[Any], None]] = {
            self._index["policy.evaluate_policy"]: self._after_evaluate,
            self._index["policy.guards_pass"]: self._after_guards,
            self._index["matching.match_partition"]: self._after_partition,
            self._index["provenance.graph_from_dict"]: self._after_graph,
        }
        self._tree = self._index["policy.eval_access_tree"]

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Rebind every site that still exists; names with no site are unmeasured."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        self.unmeasured = []
        for name, sites in SITES.items():
            installed = 0
            for site in sites:
                owner, attr = _resolve(site)
                if owner is None:
                    continue
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(self._index[name], original))
                self._originals.append((owner, attr, original))
                installed += 1
            if not installed:
                self.unmeasured.append(name)

    def uninstall(self) -> None:
        """Put every original attribute back, in reverse order of installation."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, idx: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        enter, leave = self._enter, self._leave
        after = self._after.get(idx)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(result)
            return result

        return traced

    # -- spans ---------------------------------------------------------------------

    def begin_decision(self, decision: int) -> None:
        """Mark the decision the next spans belong to; raw spans stop at the cap."""
        self.decision = decision
        self.recording = len(self.spans) < RAW_SPAN_CAP

    def _enter(self, idx: int) -> list[Any]:
        stack = self._stack
        if idx == self._tree and stack:
            parent = stack[-1]
            if parent[_NAME] == self._evaluate and parent[_GUARDS_FAILED]:
                self.counters["guard_failed_tree_evals"] += 1
        span = -1
        if self.recording:
            span = len(self.spans)
            self.spans.append(None)  # type: ignore[arg-type]  # filled in on leave
        frame = [idx, time.perf_counter_ns(), 0, span, False]
        stack.append(frame)
        return frame

    def _leave(self, frame: list[Any]) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        idx = frame[_NAME]
        duration = end - frame[_START]
        self.calls[idx] += 1
        self.total_ns[idx] += duration
        self.self_ns[idx] += duration - frame[_CHILD]
        parent_span = -1
        if stack:
            parent = stack[-1]
            parent[_CHILD] += duration
            parent_span = parent[_SPAN]
            if parent[_NAME] == self._decide:
                stage = STAGE_OF.get(self.names[idx])
                if stage is not None:
                    self.stage_ns[stage] += duration
        if frame[_SPAN] >= 0:
            self.spans[frame[_SPAN]] = (idx, frame[_START], end, parent_span, self.decision)

    def _after_evaluate(self, decision: Any) -> None:
        self.counters["applicable"] += bool(decision.applicable)

    def _after_guards(self, passed: Any) -> None:
        if not passed and self._stack and self._stack[-1][_NAME] == self._evaluate:
            self._stack[-1][_GUARDS_FAILED] = True

    def _after_partition(self, value: Any) -> None:
        # the search tries FULL, then NAMES, then TYPES, stopping at the first hit
        label = value.label
        self.counters["partition_full"] += label == "full"
        self.counters["partition_searches"] += {"full": 1, "names-only": 2}.get(label, 3)

    def _after_graph(self, graph: Any) -> None:
        self.counters["vertices"] += len(graph.vertices)

    # -- reporting -------------------------------------------------------------------

    def metrics(self, decisions: int, graphs: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures: per decision on the decide path, per graph in set-up."""
        out: dict[str, tuple[float, str]] = {}
        for idx, name in enumerate(self.names):
            per, unit = (graphs, "graph") if name in SETUP_SPANS else (decisions, "decision")
            per = max(per, 1)
            out[f"{name}.calls"] = (self.calls[idx] / per, f"count/{unit}")
            out[f"{name}.total_ms"] = (self.total_ns[idx] / 1e6 / per, f"ms/{unit}")
            out[f"{name}.self_ms"] = (self.self_ns[idx] / 1e6 / per, f"ms/{unit}")
        decide_ns = max(self.total_ns[self._decide], 1)
        for stage in STAGES:
            out[f"engine.stage.{stage}.share"] = (self.stage_ns[stage] / decide_ns, "ratio")
        for layer in DECISION_LAYERS:
            layer_ns = sum(
                self.self_ns[i] for i, name in enumerate(self.names)
                if name.split(".")[0] == layer and name not in SETUP_SPANS
            )
            out[f"layer.{layer}.self_share"] = (layer_ns / decide_ns, "ratio")
        evaluations = max(self.calls[self._evaluate], 1)
        partitions = max(self.calls[self._index["matching.match_partition"]], 1)
        c = self.counters
        out["policy.applicable_ratio"] = (c["applicable"] / evaluations, "ratio")
        out["policy.guard_failed_tree_evals"] = (
            c["guard_failed_tree_evals"] / max(decisions, 1), "count/decision"
        )
        out["matching.match_partition.full_ratio"] = (c["partition_full"] / partitions, "ratio")
        out["matching.match_partition.searches_per_call"] = (
            c["partition_searches"] / partitions, "count"
        )
        out["provenance.vertices_per_graph"] = (c["vertices"] / max(graphs, 1), "count")
        return out

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as JSON lines; call once every span has ended."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, (idx, start, end, parent, decision) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": self.names[idx],
                    "start_ns": start - self._epoch, "end_ns": end - self._epoch,
                    "parent": parent, "decision": decision,
                }) + "\n")
        return len(self.spans)


def _resolve(site: str) -> tuple[Any, str] | tuple[None, None]:
    """The object owning a site's attribute, or (None, None) if it no longer exists."""
    module_name, path = site.split(":")
    try:
        owner: Any = importlib.import_module(f"{_SRC}.{module_name}")
    except ImportError:
        return None, None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in vars(owner) or not callable(vars(owner)[attr]):
        return None, None
    return owner, attr
