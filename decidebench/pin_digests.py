"""Pin the first-pass digest of every workload for seeds 0 to SEEDS - 1.

    python3 decidebench/pin_digests.py

Run from the root of a source checkout, only when the benchmark's documents
or checks change on purpose; the pins record what the package decides today.
"""

from __future__ import annotations

import json

import run

SEEDS = 64


def main() -> None:
    run.import_package()
    import checks
    import workloads

    pins = {}
    for name, generate in workloads.WORKLOADS.items():
        pins[name] = {}
        for seed in range(SEEDS):
            docs = generate(seed)
            loop = run.decide_loop(workloads.load(docs), docs, passes=1)
            if loop.errors or loop.breaches:
                raise SystemExit(f"error: {name} seed {seed}: {(loop.errors + loop.breaches)[:3]}")
            pins[name][str(seed)] = loop.digest
        print(f"{name}: pinned seeds 0-{SEEDS - 1}", flush=True)
    checks.DIGESTS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
