"""Chaos-harness tests: schedule/report plumbing plus a small live run.

The pure pieces (:class:`ChaosPhase` validation, per-phase
:class:`Scoreboard` arithmetic, :class:`ChaosReport` invariant checks and
rendering) are
covered exactly; the live test runs :func:`run_chaos_serve` on a short
baseline → outage → recovery schedule and asserts the resilience
invariants the CI smoke job enforces at larger scale.
"""

import pytest

from repro.bench import (
    ChaosPhase,
    ChaosReport,
    Scoreboard,
    default_chaos_schedule,
    run_chaos_serve,
)
from repro.bench.loadgen import OUTCOMES
from repro.errors import ExecutionError


def stats(name, ok=0, error=0, expired=0, duration_s=1.0, latencies=()):
    s = Scoreboard(labels={"phase": name}, duration_s=duration_s)
    s.counts["ok"] = ok
    s.counts["error"] = error
    s.counts["expired"] = expired
    s.latencies_s = list(latencies)
    return s


def report(**overrides):
    kwargs = dict(
        boards=[stats("baseline", ok=10), stats("outage", ok=5),
                stats("recovery", ok=9)],
        recovery_ratio=0.9,
        hung_futures=0,
        mismatches=0,
        unaccounted=0,
        recovery_threshold=0.8,
    )
    kwargs.update(overrides)
    return ChaosReport(**kwargs)


class TestSchedule:
    def test_default_schedule_shape(self):
        schedule = default_chaos_schedule(phase_s=0.5, device="gpu")
        assert [p.name for p in schedule] == [
            "baseline", "transient", "stall", "outage", "recovery",
        ]
        assert all(p.duration_s == 0.5 for p in schedule)
        by_name = {p.name: p for p in schedule}
        assert by_name["baseline"].mode is None
        assert by_name["transient"].mode == "transient"
        assert by_name["stall"].mode == "stall"
        assert by_name["stall"].stall_s > 0
        assert by_name["outage"].lose_device == "gpu"
        assert by_name["recovery"].revive_device == "gpu"

    def test_phase_rejects_nonpositive_duration(self):
        with pytest.raises(ExecutionError, match="duration"):
            ChaosPhase("bad", 0.0)


class TestPhaseStats:
    def test_availability_and_throughput(self):
        s = stats("p", ok=8, error=2, duration_s=2.0)
        assert s.submitted == 10
        assert s.availability == pytest.approx(0.8)
        assert s.throughput_rps == pytest.approx(4.0)

    def test_empty_phase_is_zero_not_nan(self):
        s = stats("p")
        assert s.submitted == 0
        assert s.availability == 0.0
        assert s.p99_s() == 0.0

    def test_p99_in_milliseconds(self):
        s = stats("p", ok=3, latencies=[0.010] * 99 + [0.020])
        assert s.p99_s() * 1e3 == pytest.approx(10.1, abs=0.2)

    def test_outcome_universe_matches_counts(self):
        assert set(Scoreboard().counts) == set(OUTCOMES)


class TestChaosReport:
    def test_clean_report_passes(self):
        r = report()
        assert r.invariant_failures() == []
        assert r.ok

    def test_each_invariant_is_reported(self):
        assert "terminal state" in report(hung_futures=2).invariant_failures()[0]
        assert "no terminal outcome" in report(unaccounted=1).invariant_failures()[0]
        assert "bit-identical" in report(mismatches=3).invariant_failures()[0]
        r = report(boards=[stats("baseline", ok=10), stats("outage", error=4)])
        assert any("outage" in f for f in r.invariant_failures())
        r = report(recovery_ratio=0.5)
        assert any("recovered" in f for f in r.invariant_failures())
        assert not r.ok

    def test_phase_lookup(self):
        r = report()
        assert r.board("outage").counts["ok"] == 5
        with pytest.raises(ExecutionError, match="no phase"):
            r.board("meltdown")

    def test_render_carries_scoreboard_and_verdict(self):
        text = report().render()
        assert "chaos-serve phase scoreboard" in text
        assert "recovery throughput: 0.90x" in text
        assert "all resilience invariants held" in text
        text = report(hung_futures=1).render()
        assert "INVARIANT FAILURES:" in text


class TestRunChaosServe:
    def test_argument_validation(self):
        with pytest.raises(ExecutionError, match="corpus_size"):
            run_chaos_serve(corpus_size=0)
        with pytest.raises(ExecutionError, match="concurrency"):
            run_chaos_serve(concurrency=0)

    def test_short_outage_run_holds_invariants(self):
        schedule = (
            ChaosPhase("baseline", 0.3),
            ChaosPhase("outage", 0.3, lose_device="gpu"),
            ChaosPhase("recovery", 0.3, revive_device="gpu"),
        )
        r = run_chaos_serve(
            schedule=schedule,
            concurrency=2,
            pool_size=1,
            corpus_size=2,
            recovery_threshold=0.25,
        )
        assert r.hung_futures == 0
        assert r.mismatches == 0
        assert r.unaccounted == 0
        assert r.board("baseline").counts["ok"] > 0
        # The lane kept answering from the survivor during the outage.
        assert r.board("outage").counts["ok"] > 0
        assert r.invariant_failures() == [], r.invariant_failures()
        # The metrics exposition rode along and saw the quarantine.
        assert "duet_slot_quarantines_total" in r.metrics_text
        assert 'duet_slot_rebuilds_total{kind="degraded"' in r.metrics_text
