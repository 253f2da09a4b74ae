"""The untraced pass: what a user of the system sees.

A run is three *legs*.  Each leg sets the workload up from nothing (fresh
engine, fresh empty native cache), warms it up, and measures for a third
of the run length.  Samples of the three legs are pooled; only a
low-sample tail is taken per leg with the median leg reported, because it
is close to a maximum and one slow spell in one leg would set it.

Why legs and not one set-up followed by one measurement: this host slows
by up to 1.5x for seconds at a time (a CPU loop's 5-second medians range
5.8-8.2 ms), so one short window sees one host state and its median
flips between two values from run to run.  Set-ups take seconds and must
be repeated anyway; putting a measured leg after each spreads the
measurement over the whole run at no cost in time.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from pathlib import Path

import numpy as np

from harness.stats import MIN_SAMPLES_BEYOND, geomean, median, percentile
from harness.workloads import (
    Checker,
    Workload,
    build_subjects,
    closed_loop,
    open_loop,
    plan_loop,
    plan_setup,
    serving_setup,
)

__all__ = ["LEGS", "untraced_pass"]

LEGS = 3
#: A set-up that takes under this is repeated five times per leg, because
#: a single 20 ms measurement is mostly scheduler noise.
QUICK_SETUP_S = 0.3
#: Requests that fill the arena, the BLAS pools and the batcher's window
#: before an open-loop leg.
OPEN_WARMUPS = 200
#: Steps whose requests are held to the latency limit; the fourth step
#: (4000 rps) probes for overload and its latency is not quoted.
SLO_STEPS = (0, 1, 2)
QUOTED_STEP = 2


def _measure(workload, state, subjects, seed, seconds, leg, checker, min_rounds):
    """One leg's warm-up and measured phase on a fresh set-up.  Returns the
    latencies by model, operations correct and attempted, operations that
    met the limit and operations held to it, and the measured wall time."""
    if workload.kind == "plan":
        run = plan_loop(state, seconds, checker)
        by_model = run.latencies
    elif workload.kind == "closed":
        with state:
            for _ in range(workload.warmup_rounds):
                for s in subjects:
                    state.request(s.feeds[0], model=s.name)
            run = closed_loop(state, subjects, seconds, checker, min_rounds=min_rounds)
        by_model = run.table().by_model("latency_s")
    else:
        with state:
            for _ in range(OPEN_WARMUPS):
                state.request(subjects[0].feeds[0])
            run = open_loop(
                state, subjects[0], seed, seconds, checker, stream=f"arrivals-leg{leg}"
            )
        met, held = run.slo_counts(SLO_STEPS)
        by_model = {"chain@r3000": run.latency[run.ok(QUOTED_STEP)]}
        return by_model, int(run.ok().sum()), len(run.due), met, held, run.wall_s
    good = sum(len(v) for v in by_model.values())
    # No latency limit off the open loop: an operation meets it by succeeding.
    return by_model, good, run.attempted, good, run.attempted, run.wall_s


def untraced_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    tmp: Path,
    checker: Checker,
    legs: int = LEGS,
    strict: bool = False,
) -> tuple[dict[str, float], dict]:
    """Run the legs; returns the end-to-end values and the run's detail
    (set-up times per leg, sample counts).

    ``setup_s`` is the mean over legs of each leg's median set-up time:
    the median within a leg drops a stray pause, the mean across legs
    averages the host states the legs fell in.  ``strict`` refuses a p95
    the pooled sample count cannot support, and keeps a closed loop going
    until it can; without it the p95 is a low-sample estimate, taken per
    leg with the median leg reported.
    """
    serving = workload.kind != "plan"
    subjects = build_subjects(workload, seed) if serving else None
    # Whole rounds every leg must reach, whatever ``seconds`` says: a
    # guarded p95 needs 200 samples per model, a median at least a few.
    tail_rounds = math.ceil(MIN_SAMPLES_BEYOND / 0.05 / legs)
    min_rounds = tail_rounds if strict else 2

    latencies: dict[str, list] = {}
    leg_setup_s: list[list[float]] = []
    leg_p95: list[float] = []
    good = attempted = slo_good = slo_sent = 0
    wall_s = 0.0
    first_plan = ()
    repeats = 1
    for leg in range(legs):
        times: list[float] = []
        state = None
        while len(times) < repeats:
            if state is not None and serving:
                state.close()
            state = None
            gc.collect()
            t0 = time.perf_counter()
            if serving:
                state = serving_setup(
                    workload, subjects, tmp / f"leg{leg}-{len(times)}", checker
                )
            else:
                state = plan_setup(workload.models, checker, reference=first_plan)
            times.append(time.perf_counter() - t0)
            if leg == 0 and len(times) == 1 and times[0] < QUICK_SETUP_S:
                repeats = 5
        leg_setup_s.append(times)

        if not serving:
            first_plan = first_plan or state
        by_model, leg_good, leg_sent, met, held, leg_wall = _measure(
            workload, state, subjects, seed, seconds / legs, leg, checker, min_rounds
        )
        slo_good, slo_sent = slo_good + met, slo_sent + held
        for key, values in by_model.items():
            latencies.setdefault(key, []).extend(np.asarray(values).tolist())
        leg_p95.append(
            geomean(percentile(v, 95, strict=False) for v in by_model.values())
        )
        good, attempted, wall_s = good + leg_good, attempted + leg_sent, wall_s + leg_wall

    values = {
        "setup_s": float(np.mean([median(times) for times in leg_setup_s])),
        "throughput_rps": good / wall_s,
        "latency_p50_ms": geomean(median(v) for v in latencies.values()) * 1e3,
        "latency_p95_ms": (
            geomean(percentile(v, 95) for v in latencies.values())
            if strict
            else median(leg_p95)
        )
        * 1e3,
        "slo_share": slo_good / slo_sent,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "setup_s_each": leg_setup_s,
        "samples": {
            "operations": attempted,
            **{f"latency[{k}]": len(v) for k, v in latencies.items()},
        },
        "measured_wall_s": wall_s,
    }
    return values, detail
