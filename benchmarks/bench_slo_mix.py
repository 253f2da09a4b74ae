"""Mixed-priority SLO benchmark: the issue's acceptance scoreboard.

A critical tenant (paced, interactive, with a p99 SLO target) shares one
serving lane with a best-effort flood.  The two-sided promise under
test: the critical tenant's p99 meets its SLO with **zero** misses —
strict priority plus phase-boundary preemption bound its queueing — and
the best-effort tenant still gets at least 70% of the throughput it
achieves with the lane to itself, because WFQ plus the anti-starvation
escape keep bulk traffic flowing rather than starving it outright.

Correctness rides along: every successful response, preempted or not,
must be bit-identical to a solo :class:`~repro.runtime.session
.EngineSession` run, and the run must actually observe phase-boundary
preemptions (a quiet lane proves nothing).

The short arm is the CI ``slo-smoke`` shape; the ``slow`` arm runs the
same mix longer and with more flood clients for tighter percentiles.
"""

import pytest

from conftest import emit

from repro.bench import run_slo_mix

DURATION_S = 1.5
CRITICAL_SLO_S = 0.25
BE_THRESHOLD = 0.7


def _check(report):
    emit(report.render())
    failures = report.invariant_failures()
    assert not failures, failures

    crit = report.board("critical")
    be = report.board("best_effort")
    # Both tenants saw traffic and the scoreboard is complete.
    assert crit.submitted > 0 and be.submitted > 0
    assert crit.counts["ok"] > 0 and be.counts["ok"] > 0
    # The headline numbers, restated explicitly: critical p99 within its
    # SLO with zero misses, best-effort >= 70% of isolated throughput,
    # preemption exercised, every response bit-identical.
    assert crit.p99_s() <= CRITICAL_SLO_S
    assert crit.slo_misses == 0
    assert report.slo_miss_metric["critical"] == 0
    assert report.be_ratio >= BE_THRESHOLD
    assert report.preemptions >= 1
    assert report.mismatches == 0
    assert report.hung_futures == 0


def test_slo_mix_scoreboard():
    _check(
        run_slo_mix(
            duration_s=DURATION_S,
            critical_slo_s=CRITICAL_SLO_S,
            be_threshold=BE_THRESHOLD,
        )
    )


@pytest.mark.slow
def test_slo_mix_scoreboard_sustained():
    """Longer mix with a heavier flood: tighter percentiles, same bars."""
    _check(
        run_slo_mix(
            duration_s=6.0,
            best_effort_clients=6,
            critical_clients=2,
            critical_think_s=0.12,  # two callers, same ~17% lane demand
            critical_slo_s=CRITICAL_SLO_S,
            be_threshold=BE_THRESHOLD,
        )
    )
