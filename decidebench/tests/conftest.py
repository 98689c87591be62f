"""Make the benchmark's modules and the package under test importable.

Run with ``python -m pytest decidebench/tests`` from the root of a checkout.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
