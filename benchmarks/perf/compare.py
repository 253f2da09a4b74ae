#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): A's and B's medians, B over A,
how much worse B is as a share of A, and the verdict under the bound
``BENCHMARK.json`` fixes for the metric:

``ok``          B is no worse than A by more than the bound.
``regressed``   B is worse than A by more than the bound.
``unresolved``  the run-to-run spread of either side (inter-quartile
                distance over the median, needs ``--repeat`` >= 4) is wider
                than the bound, and B's runs do not all beat A's.

Exits non-zero when any row regressed or B failed a larger share of its
operations than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness.stats import quartile_spread  # noqa: E402

__all__ = ["load_bounds", "verdict", "compare", "main"]


def load_bounds(path: Path | None = None) -> dict[str, tuple[str, float]]:
    """Metric name -> (better, bound) from ``BENCHMARK.json``."""
    spec = json.loads((path or HERE.parents[1] / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    spreads = [quartile_spread(v) for v in (a, b) if len(v) >= 4]
    if spreads and max(spreads) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "ok" if all_better else "unresolved"
    if worse_by(statistics.median(a), statistics.median(b), better) > bound:
        return "regressed"
    return "ok"


def compare(a: dict, b: dict, bounds: dict[str, tuple[str, float]]) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a, b, ratio, worse_by, bound, verdict)``
    and whether the comparison passes."""
    rows, passed = [], True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (better, bound) in bounds.items():
            va = wa["end_to_end"][metric]["values"]
            vb = wb["end_to_end"][metric]["values"]
            ma, mb = statistics.median(va), statistics.median(vb)
            result = verdict(va, vb, better, bound)
            passed = passed and result != "regressed"
            rows.append(
                (name, metric, ma, mb, mb / ma, worse_by(ma, mb, better), bound, result)
            )
        fa, fb = (w["failed"] / w["attempted"] for w in (wa, wb))
        result = "regressed" if fb > fa else "ok"
        passed = passed and fb <= fa
        rows.append((name, "failed_share", fa, fb, float("nan"), fb - fa, 0.0, result))
    return rows, passed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows, passed = compare(a, b, load_bounds())
    print(
        f"{'workload':20s} {'metric':15s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>8s} {'worse by':>9s} {'bound':>6s}  verdict"
    )
    for name, metric, ma, mb, ratio, worse, bound, result in rows:
        print(
            f"{name:20s} {metric:15s} {ma:12.5g} {mb:12.5g} "
            f"{ratio:8.3f} {worse:+9.3f} {bound:6.2f}  {result}"
        )
    print("PASS" if passed else "FAIL: regression beyond the bound")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
