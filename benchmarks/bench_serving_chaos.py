"""Serving resilience benchmark: availability and p99 under scripted chaos.

The throughput benchmarks measure the serving layer at its best; this one
measures it at its worst.  A scripted fault schedule — healthy baseline,
transient kernel faults, latency stalls, a full device outage, then
recovery — runs against a live fault-injected frontend, and the
per-phase scoreboard becomes the artifact: availability (% of attempted
requests answered successfully within deadline) and p99 client latency
during *each* fault regime, so the bench trajectory captures resilience,
not just peak throughput.

Assertions are the resilience invariants, deliberately loose on timing
(CI wall clocks are noisy) and strict on correctness:

* every admitted request reaches exactly one terminal state (no hung
  futures, no unaccounted outcomes);
* every successful response is bit-identical to a solo session;
* availability stays above zero during the outage — the lane keeps
  serving from the survivor's degradation plan;
* post-recovery throughput returns to >= 50% of baseline (the harness's
  production bar is 80%; the bench bar is looser because shared CI boxes
  throttle mid-run).
"""

from conftest import emit

from repro.bench import default_chaos_schedule, run_chaos_serve

PHASE_S = 0.6
CONCURRENCY = 4
POOL_SIZE = 2
BENCH_RECOVERY_FLOOR = 0.5


def _run(phase_s=PHASE_S):
    return run_chaos_serve(
        schedule=default_chaos_schedule(phase_s=phase_s),
        concurrency=CONCURRENCY,
        pool_size=POOL_SIZE,
        recovery_threshold=BENCH_RECOVERY_FLOOR,
        collect_metrics=False,
    )


def test_chaos_phases_report_availability_and_p99():
    report = _run()
    emit(report.render())

    failures = report.invariant_failures()
    assert not failures, failures

    # The scoreboard itself must be complete: five phases, each with
    # traffic, and the correctness counters empty.
    assert [p.name for p in report.boards] == [
        "baseline", "transient", "stall", "outage", "recovery",
    ]
    for phase in report.boards:
        assert phase.submitted > 0, f"phase {phase.name!r} saw no traffic"
    assert report.hung_futures == 0
    assert report.mismatches == 0
    assert report.unaccounted == 0

    # Availability through the outage is the headline number: the lane
    # must answer from the surviving device, not just reject fast.
    outage = report.board("outage")
    assert outage.counts["ok"] > 0
    # p99 is only meaningful where requests succeeded.
    for phase in report.boards:
        if phase.counts["ok"]:
            assert phase.p99_s() > 0.0
