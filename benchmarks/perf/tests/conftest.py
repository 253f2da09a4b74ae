"""Self-tests of the perf benchmark (``pytest benchmarks/perf/tests``).

They are not part of tier-1 (``testpaths`` stays ``tests``); they guard
the benchmark's own arithmetic and its contract with ``BENCHMARK.json``.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
