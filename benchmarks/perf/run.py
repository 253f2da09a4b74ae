#!/usr/bin/env python3
"""Wall-clock perf benchmark of the DUET reproduction.

Two ways to call it, from the repository root:

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  The last line of standard
    output is one JSON object ``{"correct", "attempted", "failed",
    "metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
    metrics with ``--trace 1`` (which also writes the spans to
    ``out/W.trace.json``).  The same, with ``system_info`` and sample
    counts, goes to ``out/W.e2e.json`` / ``out/W.layers.json``.

``python3 benchmarks/perf/run.py --seed N [--workload W] [--quick] [--repeat R]``
    The whole suite: each workload in fresh subprocesses, an untraced pass
    (``R`` times) and then a traced pass, every metric printed by name with
    its unit and sample counts, and the result written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from harness.metrics import RUN_SECONDS  # noqa: E402
from harness.sysinfo import pin_threads, system_info  # noqa: E402

pin_threads()  # before anything imports NumPy

OUT = HERE / "out"
#: Record file of a single run, by ``--trace``: ``out/<workload>.<this>.json``.
RECORD = ("e2e", "layers")


def load_workloads() -> dict:
    """Import the program and return the workload table.  The program is
    this checkout's ``src/`` and nothing else: an installed copy would be
    some other commit."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    try:
        from harness.workloads import WORKLOADS
    except ImportError as exc:
        sys.exit(f"cannot import the program under {ROOT / 'src'}: {exc}")
    return WORKLOADS


def pick(workloads: dict, name: str):
    if name not in workloads:
        sys.exit(f"unknown workload {name!r}; choose from {', '.join(workloads)}")
    return workloads[name]


#: Repetitions of each timed probe in the traced pass; fewer where one
#: repetition takes seconds.
PROBE_REPS = {"paper_closed": 2, "paper_native_closed": 2}


def single(args) -> int:
    """One run of one workload in this process."""
    workload = pick(load_workloads(), args.workload)
    from harness.endtoend import LEGS, untraced_pass
    from harness.layers import traced_pass
    from harness.metrics import END_TO_END, PER_LAYER, pack
    from harness.spans import Tracer
    from harness.workloads import Checker

    seconds = args.seconds / 10 if args.quick else args.seconds
    tmp = OUT / f"tmp-{workload.name}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    # Every native engine here compiles into a cache of its own under
    # ``tmp``; this catches anything that falls back to the default one.
    os.environ["REPRO_NATIVE_CACHE_DIR"] = str(tmp / "default-cache")
    checker = Checker()
    try:
        if args.trace:
            tracer = Tracer()
            reps = 2 if args.quick else PROBE_REPS.get(workload.name, 7)
            values = traced_pass(
                workload, args.seed, seconds, tmp, checker, tracer, reps
            )
            metrics = pack(values, PER_LAYER)
            trace_path = OUT / f"{workload.name}.trace.json"
            tracer.write(trace_path, {"workload": workload.name, "seed": args.seed})
            detail = {
                "trace_file": str(trace_path.relative_to(HERE)),
                "spans": len(tracer.spans),
            }
        else:
            strict = workload.strict_tail and not args.quick
            values, detail = untraced_pass(
                workload, args.seed, seconds, tmp, checker,
                legs=1 if args.quick else LEGS, strict=strict,
            )
            metrics = pack(values, END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    line = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": seconds,
        "system_info": system_info(ROOT, args.seed),
        **detail,
        **line,
    }
    (OUT / f"{workload.name}.{RECORD[args.trace]}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(line))
    return 0


# ----------------------------------------------------------------------
# the suite


def _spawn(workload: str, trace: int, args) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} --trace {trace} exited with {done.returncode}")
    json.loads(done.stdout.strip().splitlines()[-1])  # the contract line parses
    return json.loads((OUT / f"{workload}.{RECORD[trace]}.json").read_text())


def _print_table(title: str, rows: list[tuple]) -> None:
    print(f"\n{title}")
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def suite(args) -> int:
    """Every workload (or the named one): untraced pass, then traced pass."""
    workloads = load_workloads()
    from harness.metrics import END_TO_END

    names = [args.workload] if args.workload else list(workloads)
    result = {
        "system_info": system_info(ROOT, args.seed),
        "seed": args.seed,
        "seconds": args.seconds / 10 if args.quick else args.seconds,
        "workloads": {},
    }
    for name in names:
        print(f"== {name}: {pick(workloads, name).why}", flush=True)
        untraced = [_spawn(name, 0, args) for _ in range(args.repeat)]
        traced = _spawn(name, 1, args)
        entry = {
            "end_to_end": {
                m: {"unit": unit, "values": [r["metrics"][m]["value"] for r in untraced]}
                for m, unit in END_TO_END.items()
            },
            "per_layer": traced["metrics"],
            "attempted": sum(r["attempted"] for r in untraced),
            "failed": sum(r["failed"] for r in untraced),
            "traced_attempted": traced["attempted"],
            "traced_failed": traced["failed"],
            "correct": all(r["correct"] for r in untraced) and traced["correct"],
            "samples": untraced[0]["samples"],
            "setup_s_each": untraced[0]["setup_s_each"],
            "measured_wall_s": [r["measured_wall_s"] for r in untraced],
            "trace_file": traced["trace_file"],
        }
        result["workloads"][name] = entry
        _print_table(
            "end to end",
            [("metric", "value", "unit")]
            + [(m, f"{e['values'][0]:.6g}", e["unit"]) for m, e in entry["end_to_end"].items()]
            + [("failed_share", f"{entry['failed'] / entry['attempted']:.6g}", "share")],
        )
        _print_table("samples", [(k, v) for k, v in entry["samples"].items()])
        _print_table(
            "per layer (traced pass)",
            [("metric", "value", "unit")]
            + [(m, f"{e['value']:.6g}", e["unit"]) for m, e in entry["per_layer"].items()],
        )
        print(
            f"\n  outputs checked: {entry['attempted']} untraced, "
            f"{entry['traced_attempted']} traced; failed: "
            f"{entry['failed']} + {entry['traced_failed']}; "
            f"trace: benchmarks/perf/{entry['trace_file']}\n",
            flush=True,
        )
    out = Path(args.out) if args.out else OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"result written to {out}")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seeds inputs and arrival schedules")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="single run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--quick", action="store_true", help="smoke mode: a tenth of the length, one leg")
    parser.add_argument("--repeat", type=int, default=1, help="suite: untraced runs per workload")
    parser.add_argument("--out", help="suite: result file (default benchmarks/perf/out/result.json)")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return single(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
