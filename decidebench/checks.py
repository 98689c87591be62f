"""Output checks for the decide benchmark.

Every decision the benchmark makes is checked against invariants that hold
for any input, and the first pass over a workload is folded into a digest
that is pinned, for each workload and each of the seeds ``pin_digests.py``
covers, in ``digests.json``. The paper's case study is decided once per run
and compared with its expected decision.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable

from provpurpose import engine, policy, provenance, purposes

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
CASE_STUDY = HERE.parent / "tests" / "fixtures" / "case_study"


def violations(doc: dict[str, Any], attached: Iterable[str] | None) -> list[str]:
    """Invariants of one decision, given its `outcome_to_dict` form.

    `attached` is the record's attached purposes as the input documents
    give them, or None when the record carries none.
    """
    found = []
    decided = set(doc["decided"])
    allowed = set().union(*(party["ap"] for party in doc["parties"]))
    if not decided <= allowed:
        found.append(f"decided {sorted(decided - allowed)} outside every party's allowed set")
    if attached is not None and not decided <= set(attached):
        found.append(f"decided {sorted(decided - set(attached))} outside the attached purposes")
    for party in doc["parties"]:
        for pol in party["policies"]:
            expected = pol["guards_ok"] and pol["tree_value"] == "full"
            if pol["applicable"] != expected:
                found.append(
                    f"{party['party']}/{pol['id']}: applicable={pol['applicable']} but "
                    f"guards_ok={pol['guards_ok']}, tree_value={pol['tree_value']}"
                )
    return found


class Digest:
    """SHA-256 over a sequence of decisions, each as canonical JSON or an error name."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, doc: dict[str, Any]) -> None:
        self._hash.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
        self._hash.update(b"\n")
        self.count += 1

    def add_error(self, exc: BaseException) -> None:
        self._hash.update(f"error:{type(exc).__name__}\n".encode())
        self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def pinned_digest(workload: str, seed: int) -> str | None:
    """The pinned digest of a workload's first pass at `seed`, if that seed is pinned."""
    pins = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed))


def case_study_matches() -> bool:
    """Decide the case study through the file loaders and compare with its expected output."""
    pg = purposes.load_purpose_graph(str(CASE_STUDY / "purposes.json"))
    graph = provenance.load_graph(str(CASE_STUDY / "graph.json"))
    request, attached = policy.load_request(str(CASE_STUDY / "request.json"))
    roles = policy.load_role_order(str(CASE_STUDY / "roles.json"))
    parties = []
    for stem in ("source_policy", "repository_policy"):
        path = CASE_STUDY / f"{stem}.json"
        party = json.loads(path.read_text(encoding="utf-8"))["party"]
        parties.append(engine.PartyConfig(party=party, policies=(policy.load_policy(str(path), stem),)))
    record = engine.DataRecord(provenance=graph, category=request.category, attached_purposes=attached)
    outcome = engine.decide(record, request, parties, "F3", pg, roles)
    expected = json.loads((CASE_STUDY / "expected_decision.json").read_text(encoding="utf-8"))
    return engine.outcome_to_dict(outcome) == expected
