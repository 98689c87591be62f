"""Command-line front end.

Four subcommands:

* ``validate``: load graph/policy/purpose files; structural problems in a
  loadable graph are reported as data (exit 0), unreadable or malformed
  files exit 2.
* ``evaluate``: run the full decision pipeline over a provenance graph,
  one or more policy files (files naming the same party form one party), a
  request, and a purpose graph. An empty decision is still a success.
* ``merge``: evaluate a merge expression over named plain sets
  (``--set S1=a,b``) or over party result files (``--party r.json``).
* ``bench``: time synthetic policy generation and merges; print the means.

Output is JSON on stdout (or ``--out``). The parser and every subcommand
report every fault, usage faults included, by raising; :func:`main` turns a
package or OS error into one ``error: ...`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any, NoReturn, Sequence

from . import _docs
from .bench import run_bench
from .algebra import eval_fida_plain
from .engine import DataRecord, PartyConfig, decide, outcome_to_dict
from .errors import ConfigurationError, InputFormatError, ProvPurposeError
from .external import merge_parties, party_result_from_dict
from .policy import load_request, load_role_order, policy_from_dict
from .provenance import load_graph
from .purposes import load_purpose_graph
from .synth import BenchConfig


def _emit(payload: Any, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _party_from_file(path: str, internal_override: str | None) -> PartyConfig:
    stem = Path(path).stem

    def decode(doc: Any) -> PartyConfig:
        doc = _docs.obj(doc, "policy file")
        party = doc.get("party", stem)
        if "policies" in doc:
            docs = _docs.array(doc["policies"], '"policies"')
            policies = tuple(policy_from_dict(p, default_id=f"{party}_{i}") for i, p in enumerate(docs))
            internal = doc.get("internal_expr")
        else:
            policies = (policy_from_dict(doc, default_id=stem),)
            internal = None
        return PartyConfig(party, policies, internal if internal_override is None else internal_override)

    return _docs.load(path, decode)


def _parties_from_files(paths: Sequence[str], internal_override: str | None) -> list[PartyConfig]:
    """One party per name, in order of first appearance; same-named files pool their policies."""
    parties: dict[str, PartyConfig] = {}
    for path in paths:
        cfg = _party_from_file(path, internal_override)
        first = parties.setdefault(cfg.party, cfg)
        if first is not cfg:
            if cfg.internal_expr != first.internal_expr:
                raise InputFormatError(f"{path}: conflicting internal_expr for party {cfg.party!r}")
            parties[cfg.party] = replace(first, policies=first.policies + cfg.policies)
    return list(parties.values())


def cmd_validate(args: argparse.Namespace) -> int:
    if not (args.graph or args.policy or args.purposes):
        raise ConfigurationError("validate needs --graph, --policy, or --purposes")
    payload: dict[str, Any] = {}
    if args.graph:
        graph = load_graph(args.graph)
        report = graph.validate()
        payload["graph"] = {
            "path": args.graph,
            "ok": report.ok,
            "violations": list(report.violations),
        }
    if args.policy:
        entries = []
        for path in args.policy:
            _party_from_file(path, None)
            entries.append({"path": path, "ok": True})
        payload["policies"] = entries
    if args.purposes:
        load_purpose_graph(args.purposes)
        payload["purposes"] = {"path": args.purposes, "ok": True}
    _emit(payload, args.out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    pg = load_purpose_graph(args.purposes)
    request, attached = load_request(args.request)
    role_order = load_role_order(args.roles) if args.roles else None
    parties = _parties_from_files(args.policy, args.internal_expr)
    record = DataRecord(
        provenance=graph,
        category=request.category,
        attached_purposes=attached,
    )
    outcome = decide(record, request, parties, args.external, pg, role_order)
    _emit(outcome_to_dict(outcome), args.out)
    return 0


def _parse_set_binding(text: str) -> tuple[str, frozenset[str]]:
    name, eq, values = text.partition("=")
    name = name.strip()
    if not eq or not name:
        raise InputFormatError(f"--set needs NAME=member,member form, got {text!r}")
    members = frozenset(v.strip() for v in values.split(",") if v.strip())
    return name, members


def cmd_merge(args: argparse.Namespace) -> int:
    """Every input is used or rejected: each mode refuses the other's options."""
    if args.party:
        if args.set:
            raise ConfigurationError("--set binds plain sets and cannot be combined with --party")
        if args.expr is not None and args.external is not None:
            raise ConfigurationError("merging parties takes --expr or --external, not both")
        if args.expr is None and args.external is None:
            raise ConfigurationError("merging parties needs --expr or --external")
    elif args.external is not None:
        raise ConfigurationError("--external needs --party")
    elif args.expr is None:
        raise ConfigurationError("merge needs --expr")
    pg = load_purpose_graph(args.purposes) if args.purposes else None
    if args.party:
        results = [
            _docs.load(p, partial(party_result_from_dict, default_party=Path(p).stem))
            for p in args.party
        ]
        decided = merge_parties(results, args.external if args.expr is None else args.expr, pg)
    else:
        env: dict[str, frozenset[str]] = {}
        for binding in args.set or []:
            name, members = _parse_set_binding(binding)
            if name in env:
                raise InputFormatError(f"--set binds {name!r} twice")
            env[name] = members
        decided = eval_fida_plain(args.expr, env, pg)
    _emit({"result": sorted(decided)}, args.out)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig(
        seed=args.seed,
        n_purposes=args.n_purposes,
        n_policies=args.n_policies,
        repetitions=args.reps,
    )
    _emit(run_bench(config), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Rejects a command line by raising, so it ends in one ``error:`` line like every other fault."""

    def error(self, message: str) -> NoReturn:
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="provpurpose",
        description="Purpose decisions over provenance graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check graph and policy files")
    p_validate.add_argument("--graph", help="provenance graph JSON file")
    p_validate.add_argument("--policy", action="append", help="policy JSON file (repeatable)")
    p_validate.add_argument("--purposes", help="purpose graph JSON file")
    p_validate.add_argument("--out", help="write JSON result to this file")
    p_validate.set_defaults(func=cmd_validate)

    p_eval = sub.add_parser("evaluate", help="run the decision pipeline")
    p_eval.add_argument("--graph", required=True, help="provenance graph JSON file")
    p_eval.add_argument(
        "--policy", action="append", required=True, help="party policy file (repeatable)"
    )
    p_eval.add_argument("--request", required=True, help="request JSON file")
    p_eval.add_argument("--purposes", required=True, help="purpose graph JSON file")
    p_eval.add_argument("--roles", help="role order JSON file")
    p_eval.add_argument(
        "--internal-expr", help="per-party merge expression over policy ids"
    )
    p_eval.add_argument(
        "--external", default="F3", help="cross-party merge (function name or expression)"
    )
    p_eval.add_argument("--out", help="write JSON result to this file")
    p_eval.set_defaults(func=cmd_evaluate)

    p_merge = sub.add_parser("merge", help="evaluate a merge expression")
    p_merge.add_argument("--expr", help="merge expression")
    p_merge.add_argument(
        "--set",
        action="append",
        metavar="NAME=a,b",
        help="bind a plain purpose set (repeatable)",
    )
    p_merge.add_argument(
        "--party", action="append", help="party result JSON file (repeatable)"
    )
    p_merge.add_argument("--external", help="cross-party function for --party inputs")
    p_merge.add_argument("--purposes", help="purpose graph (needed by ranked operators)")
    p_merge.add_argument("--out", help="write JSON result to this file")
    p_merge.set_defaults(func=cmd_merge)

    p_bench = sub.add_parser("bench", help="run the timing harness")
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--reps", type=int, default=10, help="repetitions per mean")
    p_bench.add_argument("--n-purposes", type=int, default=200)
    p_bench.add_argument("--n-policies", type=int, default=400)
    p_bench.add_argument("--out", help="write JSON report to this file")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # only --help exits, once it has printed the help
        return int(exc.code or 0)
    except (ProvPurposeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
