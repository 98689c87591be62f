"""Command-line behavior: exit codes, JSON output, golden decision."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from provpurpose.cli import main
from conftest import CASE_STUDY, FIXTURES, complete_dag_doc, cycle_partition_doc

SRC = Path(__file__).parent.parent / "src"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _case_study_eval_args(tmp_path=None, out=None):
    argv = [
        "evaluate",
        "--graph", str(CASE_STUDY / "graph.json"),
        "--policy", str(CASE_STUDY / "source_policy.json"),
        "--policy", str(CASE_STUDY / "repository_policy.json"),
        "--request", str(CASE_STUDY / "request.json"),
        "--purposes", str(CASE_STUDY / "purposes.json"),
        "--roles", str(CASE_STUDY / "roles.json"),
    ]
    if out is not None:
        argv += ["--out", str(out)]
    return argv


def test_evaluate_matches_golden_decision(capsys):
    code, out, err = _run(capsys, *_case_study_eval_args())
    assert code == 0 and err == ""
    got = json.loads(out)
    want = json.loads((CASE_STUDY / "expected_decision.json").read_text())
    assert got == want
    assert got["decided"] == ["education"]


def test_evaluate_writes_out_file(capsys, tmp_path):
    target = tmp_path / "decision.json"
    code, out, err = _run(capsys, *_case_study_eval_args(out=target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["decided"] == ["education"]


def test_evaluate_empty_decision_still_succeeds(capsys, tmp_path):
    request = tmp_path / "request.json"
    request.write_text(json.dumps({"subject": "stranger", "category": "assignment"}))
    argv = _case_study_eval_args()
    argv[argv.index("--request") + 1] = str(request)
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["decided"] == []


def test_evaluate_naive_against_aware_timestamp_is_unsatisfied(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": "r", "type": "Artifact", "name": "r",
                      "attrs": {"at": {"timestamp": "2020-01-01T12:00:00"}}}],
        "edges": [],
    }))
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({
        "party": "p", "id": "stamped",
        "provenance_partitions": {
            "c": {"attr": ["Artifact", "r", "at", "<", {"timestamp": "2021-01-01T00:00:00+00:00"}]},
        },
        "AP": ["education"],
    }))
    request = tmp_path / "request.json"
    request.write_text(json.dumps({"subject": "student"}))
    code, out, err = _run(
        capsys, "evaluate", "--graph", str(graph), "--policy", str(policy),
        "--request", str(request), "--purposes", str(CASE_STUDY / "purposes.json"),
    )
    assert code == 0 and err == ""
    [decision] = json.loads(out)["parties"][0]["policies"]
    assert decision["applicable"] is False
    assert decision["tree_value"] == "names-only"


def test_evaluate_external_flag(capsys):
    argv = _case_study_eval_args() + ["--external", "F1"]
    code, out, err = _run(capsys, *argv)
    assert code == 0
    got = json.loads(out)
    assert got["external"] == "F1"
    # F1 unions allowances and intersects prohibitions; with education
    # attached, the union narrows back to it.
    assert got["decided"] == ["education"]


def _as_source(tmp_path):
    """The case study's repository policy, filed under the source party."""
    doc = json.loads((CASE_STUDY / "repository_policy.json").read_text())
    doc["party"] = "source"
    path = tmp_path / "repository_as_source.json"
    path.write_text(json.dumps(doc))
    return path


def test_evaluate_groups_files_of_one_party(capsys, tmp_path):
    argv = _case_study_eval_args()
    argv[argv.index(str(CASE_STUDY / "repository_policy.json"))] = str(_as_source(tmp_path))
    for external in ("F3", "F3(source, source)"):
        code, out, err = _run(capsys, *argv, "--external", external)
        assert code == 0 and err == ""
        (party,) = json.loads(out)["parties"]
        assert party["party"] == "source"
        assert party["internal"] == "f_dotplus(source_policy, repository_policy)"


def test_evaluate_conflicting_internal_exprs_of_one_party_exit_2(capsys, tmp_path):
    source = tmp_path / "source.json"
    source.write_text(json.dumps({
        "party": "source",
        "internal_expr": "source_policy",
        "policies": [json.loads((CASE_STUDY / "source_policy.json").read_text())],
    }))
    argv = _case_study_eval_args()
    argv[argv.index(str(CASE_STUDY / "source_policy.json"))] = str(source)
    argv[argv.index(str(CASE_STUDY / "repository_policy.json"))] = str(_as_source(tmp_path))
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_evaluate_too_deep_internal_expr_exits_2(capsys):
    deep = "(" * 400 + "source_policy" + ")" * 400
    code, out, err = _run(capsys, *_case_study_eval_args(), "--internal-expr", deep)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_evaluate_empty_internal_expr_exits_2(capsys, tmp_path):
    """An empty expression is parsed, from the flag or the file, not replaced by the default fold."""
    code, out, err = _run(capsys, *_case_study_eval_args(), "--internal-expr", "")
    assert (code, out, err) == (2, "", "error: internal-merge: empty expression (at position 0)\n")
    source = tmp_path / "source.json"
    source.write_text(json.dumps({
        "party": "source",
        "internal_expr": "",
        "policies": [json.loads((CASE_STUDY / "source_policy.json").read_text())],
    }))
    argv = _case_study_eval_args()
    argv[argv.index(str(CASE_STUDY / "source_policy.json"))] = str(source)
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: internal-merge: empty expression (at position 0)\n")


def test_evaluate_over_the_search_budget_exits_2(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(complete_dag_doc(32)))
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({
        "party": "p", "id": "cycle",
        "provenance_partitions": {"c": {"partition": cycle_partition_doc(8)}},
        "AP": ["education"],
    }))
    request = tmp_path / "request.json"
    request.write_text(json.dumps({"subject": "student"}))
    code, out, err = _run(
        capsys, "evaluate", "--graph", str(graph), "--policy", str(policy),
        "--request", str(request), "--purposes", str(CASE_STUDY / "purposes.json"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: policy-evaluation: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_evaluate_malformed_file_exits_2(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    argv = _case_study_eval_args()
    argv[argv.index("--graph") + 1] = str(broken)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "line" in err


def test_evaluate_missing_file_exits_2(capsys, tmp_path):
    argv = _case_study_eval_args()
    argv[argv.index("--graph") + 1] = str(tmp_path / "nope.json")
    code, out, err = _run(capsys, *argv)
    assert code == 2 and err.startswith("error:")


def test_usage_error_exits_2(capsys):
    code, _, _ = _run(capsys, "evaluate", "--graph", "x.json")
    assert code == 2


def test_validate_reports_violations_as_data(capsys, tmp_path):
    bad = tmp_path / "graph.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "a", "type": "Agent", "name": "a"},
                    {"id": "b", "type": "Artifact", "name": "b"},
                ],
                "edges": [{"src": "a", "dst": "b", "label": "used"}],
            }
        )
    )
    code, out, err = _run(capsys, "validate", "--graph", str(bad))
    assert code == 0 and err == ""
    got = json.loads(out)
    assert got["graph"]["ok"] is False
    assert got["graph"]["violations"]


def test_validate_ok_graph_and_policy(capsys):
    code, out, err = _run(
        capsys,
        "validate",
        "--graph", str(CASE_STUDY / "graph.json"),
        "--policy", str(CASE_STUDY / "source_policy.json"),
        "--purposes", str(FIXTURES / "purpose_hierarchy.json"),
    )
    assert code == 0
    got = json.loads(out)
    assert got["graph"]["ok"] is True
    assert got["policies"][0]["ok"] is True
    assert got["purposes"]["ok"] is True


def test_validate_without_inputs_exits_2(capsys):
    code, out, err = _run(capsys, "validate")
    assert code == 2 and err.startswith("error:")


def test_validate_malformed_policy_exits_2(capsys, tmp_path):
    bad = tmp_path / "policy.json"
    bad.write_text(json.dumps({"type": 1, "provenance_partitions": {}}))
    code, out, err = _run(capsys, "validate", "--policy", str(bad))
    assert code == 2 and err.startswith("error:")


def test_merge_plain_sets(capsys):
    code, out, err = _run(
        capsys,
        "merge",
        "--expr", "A & B + C",
        "--set", "A=x,y",
        "--set", "B=y,z",
        "--set", "C=w",
    )
    assert code == 0
    assert json.loads(out)["result"] == ["w", "y"]


def test_merge_ranked_operator_needs_purposes(capsys):
    code, out, err = _run(
        capsys, "merge", "--expr", "A upmax B", "--set", "A=x", "--set", "B=y"
    )
    assert code == 2 and err.startswith("error:")
    # An empty operand would lose without a rank comparison; it still needs --purposes.
    code, out, err = _run(
        capsys, "merge", "--expr", "A upmax B", "--set", "A=", "--set", "B=y"
    )
    assert code == 2 and err.startswith("error:") and out == ""
    code, out, err = _run(
        capsys,
        "merge",
        "--expr", "A upmax B",
        "--set", "A=Admin",
        "--set", "B=Analysis",
        "--purposes", str(FIXTURES / "purpose_hierarchy.json"),
    )
    assert code == 0
    assert json.loads(out)["result"] == ["Admin"]


def test_merge_unbound_name_exits_2(capsys):
    code, out, err = _run(capsys, "merge", "--expr", "A + B", "--set", "A=x")
    assert code == 2 and err.startswith("error:")


def test_merge_too_deep_expr_exits_2(capsys):
    deep = "(" * 400 + "A" + ")" * 400
    code, out, err = _run(capsys, "merge", "--expr", deep, "--set", "A=x")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_merge_without_expr_exits_2(capsys):
    code, out, err = _run(capsys, "merge", "--set", "A=x")
    assert code == 2 and err.startswith("error:")


def test_merge_bad_set_binding_exits_2(capsys):
    code, out, err = _run(capsys, "merge", "--expr", "A", "--set", "bogus")
    assert code == 2 and err.startswith("error:")


def test_merge_party_files(capsys, tmp_path):
    for name, doc in (
        ("m.json", {"party": "m", "ap": ["education", "research"], "pp": ["audit"]}),
        ("n.json", {"party": "n", "ap": ["education"], "pp": []}),
    ):
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = _run(
        capsys,
        "merge",
        "--party", str(tmp_path / "m.json"),
        "--party", str(tmp_path / "n.json"),
        "--external", "F3",
    )
    assert code == 0
    assert json.loads(out)["result"] == ["education"]

    code, out, err = _run(
        capsys,
        "merge",
        "--party", str(tmp_path / "m.json"),
        "--party", str(tmp_path / "n.json"),
        "--expr", "F2(m, n)",
    )
    assert code == 0
    assert json.loads(out)["result"] == ["education", "research"]


@pytest.mark.parametrize("seed", ["1", "2", "3", "4", "5"])
def test_ranked_operators_name_the_smallest_unknown_purpose_under_any_hash_seed(tmp_path, seed):
    """Set iteration order follows the hash seed; the purpose an error names must not."""
    (tmp_path / "pg.json").write_text(json.dumps({"purposes": ["a", "b"], "edges": [["a", "b"]]}))
    unknown = ["zz", "yy", "xx", "ww"]
    (tmp_path / "m.json").write_text(json.dumps({"party": "m", "ap": unknown, "pp": unknown}))
    (tmp_path / "n.json").write_text(json.dumps({"party": "n", "ap": ["a"], "pp": ["a"]}))
    parties = ["--party", str(tmp_path / "m.json"), "--party", str(tmp_path / "n.json")]
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
    for args in (
        ["--set", "S1=zz,yy,xx,ww", "--set", "S2=a", "--expr", "S1 upmax S2"],
        [*parties, "--external", "F5"],  # ranks the prohibited sides
        [*parties, "--external", "F8"],  # ranks the allowed sides
    ):
        run = subprocess.run(
            [sys.executable, "-m", "provpurpose", "merge", *args, "--purposes", str(tmp_path / "pg.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: unknown purpose 'ww'\n")


def test_merge_same_named_party_files_exits_2(capsys, tmp_path):
    for name in ("m.json", "n.json"):
        (tmp_path / name).write_text(json.dumps({"party": "same", "ap": ["education"]}))
    code, out, err = _run(
        capsys,
        "merge",
        "--party", str(tmp_path / "m.json"),
        "--party", str(tmp_path / "n.json"),
        "--external", "F3",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_merge_party_without_expression_exits_2(capsys, tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({"party": "m", "ap": ["x"]}))
    code, out, err = _run(capsys, "merge", "--party", str(tmp_path / "m.json"))
    assert code == 2 and err.startswith("error:")


def test_bench_tiny_run_shape(capsys):
    code, out, err = _run(
        capsys,
        "bench",
        "--seed", "1",
        "--reps", "2",
        "--n-purposes", "20",
        "--n-policies", "8",
    )
    assert code == 0
    got = json.loads(out)
    assert got["seed"] == 1 and got["repetitions"] == 2
    assert "n_rows" not in got
    assert set(got["generation_mean_seconds"]) == {"type1", "type2", "type3", "type4"}
    assert set(got["algebra_mean_seconds"]) == {"internal", "external"}
    assert got["type_counts"] == [2, 2, 2, 2]
    assert all(v >= 0 for v in got["generation_mean_seconds"].values())


def _case_study_doc(name, **changes):
    doc = json.loads((CASE_STUDY / name).read_text())
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "option, doc, message",
    [
        ("--policy", _case_study_doc("repository_policy.json", AP="abc"), '"AP" must be an array'),
        ("--graph", {"vertices": 3}, '"vertices" must be an array'),
        ("--request", _case_study_doc("request.json", query_attrs=[]), '"query_attrs" must be an object'),
        (
            "--graph",
            _case_study_doc("graph.json", edges=[{"src": "submit", "dst": "ghost", "label": "used"}]),
            "edge endpoint 'ghost' is not a vertex",
        ),
        (
            "--policy",
            _case_study_doc("repository_policy.json", provenance_partitions={"p": {"path": "((("}}),
            "step '(((' is not LABEL|NAME (at position 0)",
        ),
        (
            "--purposes",
            _case_study_doc("purposes.json", edges=[["education", "zz"]]),
            "edge endpoint 'zz' is not a listed purpose",
        ),
        (
            "--policy",
            _case_study_doc(
                "repository_policy.json", provenance_partitions={"p": {"target": "/artifact[x=" + "9" * 5000 + "]"}}
            ),
            "integer of 5000 digits is too long (at position 9)",
        ),
    ],
)
def test_field_error_names_its_file_once(capsys, tmp_path, option, doc, message):
    bad = tmp_path / "b.json"
    bad.write_text(json.dumps(doc))
    argv = _case_study_eval_args()
    # the last --policy is the repository's, so a valid policy file comes first
    at = max(i for i, arg in enumerate(argv) if arg == option)
    argv[at + 1] = str(bad)
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err == f"error: {bad}: {message}\n"


def test_validate_and_merge_name_the_faulty_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"policies": [{"provenance_partitions": {"p": {"null": True}}, "AP": "abc"}]}))
    code, out, err = _run(capsys, "validate", "--policy", str(bad))
    assert (code, err) == (2, f'error: {bad}: "AP" must be an array\n')
    bad.write_text(json.dumps({"ap": ["x"], "pp": "abc"}))
    code, out, err = _run(capsys, "merge", "--party", str(bad), "--external", "F3")
    assert (code, err) == (2, f'error: {bad}: "pp" must be an array\n')


def test_output_is_stable_json(capsys):
    code, out, err = _run(capsys, *_case_study_eval_args())
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("option", ["--graph", "--purposes", "--request", "--policy", "--party"])
def test_too_deeply_nested_file_exits_2(capsys, tmp_path, option):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    if option == "--party":
        argv = ["merge", "--party", str(deep), "--external", "F3"]
    else:
        argv = _case_study_eval_args()
        argv[argv.index(option) + 1] = str(deep)
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "nests too deeply" in err


# -- fuzz: one node of one case-study file replaced by a random JSON value ------

_WORDS = (
    "process", "PROCESS", "Agent", "artifact", "used", "wasGeneratedBy", "*", "=", "<=",
    "AND", "OR", "Submit", "graded_submission", "education", "students", "assignments",
)
_KEYS = (
    "vertices", "edges", "id", "type", "name", "ref", "attrs", "src", "dst", "label",
    "path", "partition", "vertex", "attr", "query", "null", "target", "timestamp", "location",
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(_WORDS) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_FUZZED_FILES = (
    "graph.json", "source_policy.json", "repository_policy.json",
    "request.json", "purposes.json", "roles.json",
)


def _nodes(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_input_file_decides_or_exits_2(capsys, tmp_path, data):
    name = data.draw(st.sampled_from(_FUZZED_FILES))
    doc = json.loads((CASE_STUDY / name).read_text())
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    fuzzed = tmp_path / name
    fuzzed.write_text(json.dumps(_replaced(doc, path, data.draw(_JSON))))
    argv = [str(fuzzed) if arg == str(CASE_STUDY / name) else arg for arg in _case_study_eval_args()]
    code, out, err = _run(capsys, *argv)
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
