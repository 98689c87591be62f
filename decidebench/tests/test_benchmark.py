"""The benchmark's own tests: report schema, generator determinism, output checks.

None of them asserts on a wall-clock reading.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import checks
import hostspeed
import run
import tracing
import workloads
from conftest import BENCH, ROOT

from provpurpose import BenchConfig, engine, gen_synthetic, policy, purposes

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _canonical(docs: dict) -> bytes:
    return json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()


def _report(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_report_schema_matches_the_spec(trace, section):
    report = _report("party_algebra", trace)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["attempted"] >= 1 and report["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in report["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in report["metrics"].values())


def test_spans_file_links_children_to_parents():
    _report("party_algebra", 1)
    lines = (BENCH / "out" / "spans_party_algebra_seed3.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans and all(set(s) == {"id", "name", "start_ns", "end_ns", "parent", "decision"} for s in spans)
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"] and span["end_ns"] <= parent["end_ns"]
            assert parent["decision"] == span["decision"]
    assert {s["name"] for s in spans if s["parent"] < 0} >= {"engine.decide", "provenance.graph_from_dict"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_documents(name):
    generate = workloads.WORKLOADS[name]
    assert _canonical(generate(11)) == _canonical(generate(11))
    assert _canonical(generate(11)) != _canonical(generate(12))


def test_generated_policies_round_trip_through_the_loader():
    data = gen_synthetic(BenchConfig(seed=4, n_purposes=30, n_rows=2, n_policies=40))
    for pol in data.policies:
        assert policy.policy_from_dict(workloads.policy_doc(pol)) == pol


def test_party_algebra_expressions_apply_every_merge_function():
    docs = workloads.party_algebra(5)
    assert len(docs["parties"]) == 8
    assert len(docs["purposes"]["purposes"]) == 2000
    for party in docs["parties"]:
        assert len(party["policies"]) == 32
        assert all(fn + "(" in party["internal_expr"] for fn in workloads.INTERNAL_FUNCTIONS)
    assert all(fn in docs["external"] for fn in ("F5", "F6", "F7", "F8"))


def _longest_path(graph: dict) -> int:
    successors: dict[str, list[str]] = {}
    indegree = {v["id"]: 0 for v in graph["vertices"]}
    for e in graph["edges"]:
        successors.setdefault(e["src"], []).append(e["dst"])
        indegree[e["dst"]] += 1
    depth = dict.fromkeys(indegree, 0)
    ready = [v for v, d in indegree.items() if d == 0]
    while ready:
        v = ready.pop()
        for w in successors.get(v, ()):
            depth[w] = max(depth[w], depth[v] + 1)
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return max(depth.values())


def test_lineage_graphs_span_the_size_ladder_and_include_deep_chains():
    docs = workloads.deep_lineage(5)
    loaded = workloads.load(docs)
    sizes = sorted(len(r.provenance.vertices) for r in loaded.records)
    assert sizes[0] < 50 and 3000 <= sizes[-1] <= 3400
    assert len(docs["chains"]) == len(workloads.CHAIN_SIZES)
    for k, size in zip(docs["chains"], workloads.CHAIN_SIZES):
        graph = docs["records"][k]["graph"]
        assert len(loaded.records[k].provenance.vertices) == size
        assert _longest_path(graph) >= 0.45 * size  # as deep as it is large
        assert graph["vertices"][0]["name"] == f"record_{k}"  # listed from the record back
    # shapes are fixed across seeds, so every seed makes the same matching work
    other = workloads.deep_lineage(6)
    assert [r["graph"]["edges"] for r in other["records"]] == [r["graph"]["edges"] for r in docs["records"]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_pass_matches_the_pinned_digest(name):
    docs = workloads.WORKLOADS[name](0)
    loop = run.decide_loop(workloads.load(docs), docs, passes=1)
    assert not loop.errors and not loop.breaches
    assert loop.failed <= len(docs["chains"])  # only the known recursion defect may fail
    assert loop.digest == checks.pinned_digest(name, 0)


def test_digest_tells_decisions_apart():
    a, b = checks.Digest(), checks.Digest()
    a.add({"decided": ["x"]})
    b.add({"decided": ["y"]})
    assert a.hexdigest() != b.hexdigest()
    c = checks.Digest()
    c.add_error(RecursionError())
    assert c.count == 1 and c.hexdigest() != a.hexdigest()
    assert checks.pinned_digest("party_algebra", -1) is None


def test_violations_flags_each_invariant():
    pol = {"id": "p", "applicable": True, "guards_ok": True, "tree_value": "full"}
    doc = {"decided": ["a"], "attached_purposes": None,
           "parties": [{"party": "x", "ap": ["a", "b"], "policies": [pol]}]}
    assert checks.violations(doc, None) == []
    assert checks.violations(doc, ["b"])  # decided outside the attached purposes
    assert checks.violations({**doc, "decided": ["c"]}, None)  # outside every party's AP
    broken = {**pol, "tree_value": "names-only"}
    assert checks.violations({**doc, "parties": [{"party": "x", "ap": ["a"], "policies": [broken]}]}, None)


def test_case_study_reproduces_the_expected_decision():
    assert checks.case_study_matches()


def test_host_speed_scales_each_timing_by_the_samples_nearest_to_it():
    host = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_NS
    # the host runs at nominal speed, then at half speed from t=100
    host.starts = list(range(0, 200, 10))
    host.samples = [nominal if t < 100 else 2 * nominal for t in host.starts]
    assert host.scale(35, 1000) == 1000
    assert host.scale(155, 1000) == 500
    assert host.scale(-5, 1000) == 1000 and host.scale(500, 1000) == 500  # ends use the first or last window
    host.samples[3] = 50 * nominal  # one preempted sample does not move the median of its window
    assert host.scale(35, 1000) == 1000


def test_tracer_restores_every_attribute_and_reports_missing_sites(monkeypatch):
    before = {site: tracing._resolve(site) for sites in tracing.SITES.values() for site in sites}
    originals = {site: vars(owner)[attr] for site, (owner, attr) in before.items()}
    monkeypatch.setitem(tracing.SITES, "matching.match_path", ("policy:no_such_function",))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine.decide is not originals["engine:decide"]
        assert purposes.PurposeGraph.split_static is not originals["purposes:PurposeGraph.split_static"]
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == ["matching.match_path"]
    for site, (owner, attr) in before.items():
        assert vars(owner)[attr] is originals[site]


def _flaky_decide(monkeypatch, every: int) -> None:
    decide = engine.decide
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) % every == 0:
            raise RecursionError("maximum recursion depth exceeded")
        return decide(*args, **kwargs)

    monkeypatch.setattr(engine, "decide", flaky)


def test_a_decision_that_raises_is_counted_and_the_loop_goes_on(monkeypatch):
    docs = workloads.party_algebra(0)
    loaded = workloads.load(docs)
    _flaky_decide(monkeypatch, 7)
    loop = run.decide_loop(loaded, docs, passes=1)
    assert loop.attempted == len(docs["records"])
    assert loop.failed == len(docs["records"]) // 7 == len(loop.errors)
    assert all("RecursionError" in e for e in loop.errors) and not loop.breaches
    assert loop.succeeded() == loop.attempted - loop.failed  # failures are not timed
    assert all(not loop.timings[k] for k in range(6, len(docs["records"]), 7))
    assert loop.digest and loop.digest != checks.pinned_digest("party_algebra", 0)


def test_recursion_error_on_a_chain_record_is_failed_but_not_an_error(monkeypatch):
    docs = workloads.party_algebra(0)
    docs["chains"] = [6, 13]
    loaded = workloads.load(docs)
    _flaky_decide(monkeypatch, 7)
    loop = run.decide_loop(loaded, docs, passes=1)
    assert loop.failed == len(docs["records"]) // 7
    assert len(loop.errors) == loop.failed - 2
    assert not any(e.startswith(("record 6:", "record 13:")) for e in loop.errors)


def test_decision_that_breaks_an_invariant_is_failed_and_not_timed(monkeypatch):
    docs = workloads.party_algebra(0)
    loaded = workloads.load(docs)
    monkeypatch.setattr(checks, "violations", lambda doc, attached: ["broken"])
    loop = run.decide_loop(loaded, docs, passes=2)
    assert loop.failed == loop.attempted == 2 * len(docs["records"])
    assert not loop.succeeded() and len(loop.breaches) == loop.attempted
