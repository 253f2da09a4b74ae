"""Report-logic tests for the SLO harness and the verdict it shares with
the chaos harness — pure (no threads, no frontend): the reports are
built from hand-filled scoreboards."""

import pytest

from repro.bench import ChaosReport, Scoreboard, SLOReport
from repro.errors import ExecutionError


def tenant(name, priority, ok=0, slo_s=None, latencies=(), preempted=0):
    board = Scoreboard(
        labels={"tenant": name, "class": priority},
        duration_s=1.0,
        slo_p99_s=slo_s,
        preempted=preempted,
    )
    board.counts["ok"] = ok
    board.latencies_s = list(latencies)
    return board


def slo_report(**overrides):
    kwargs = dict(
        boards=[
            tenant("critical", "critical", ok=10, slo_s=0.25,
                   latencies=[0.01] * 10),
            tenant("best_effort", "best_effort", ok=80, preempted=3),
        ],
        isolated_be_rps=100.0,
        be_ratio=0.8,
        be_threshold=0.7,
        hung_futures=0,
        unaccounted=0,
        mismatches=0,
    )
    kwargs.update(overrides)
    return SLOReport(**kwargs)


def chaos_report(**overrides):
    def phase(name, ok):
        board = Scoreboard(labels={"phase": name}, duration_s=1.0)
        board.counts["ok"] = ok
        return board

    kwargs = dict(
        boards=[phase("baseline", 10), phase("outage", 5), phase("recovery", 9)],
        recovery_ratio=0.9,
        recovery_threshold=0.8,
        hung_futures=0,
        unaccounted=0,
        mismatches=0,
    )
    kwargs.update(overrides)
    return ChaosReport(**kwargs)


@pytest.mark.parametrize("make", [chaos_report, slo_report])
@pytest.mark.parametrize(
    "field, phrase",
    [
        ("hung_futures", "never reached a terminal state"),
        ("unaccounted", "observed no terminal outcome"),
        ("mismatches", "not bit-identical"),
    ],
)
def test_terminal_state_checks_are_shared(make, field, phrase):
    clean = make()
    assert clean.ok and clean.to_json()["ok"] is True
    assert clean.to_json()["failures"] == []
    assert "INVARIANT FAILURES" not in clean.render()

    broken = make(**{field: 1})
    assert not broken.ok
    doc = broken.to_json()
    assert doc["ok"] is False and doc[field] == 1
    assert [f for f in doc["failures"] if phrase in f] == doc["failures"]
    text = broken.render()
    assert "INVARIANT FAILURES:" in text and phrase in text


class TestSLOReport:
    def test_clean_report_renders_rows_facts_and_verdict(self):
        text = slo_report().render()
        assert "slo-mix tenant scoreboard" in text
        assert "best-effort throughput: 0.80x" in text
        assert "phase-boundary preemptions: 3" in text
        assert "all SLO invariants held" in text
        header = text.splitlines()[1].split()
        assert header[:2] == ["tenant", "class"]
        assert {"rejected", "p99_ms", "slo_ms", "misses", "preempted"} <= set(header)

    def test_each_slo_invariant_is_reported(self):
        slow = tenant("critical", "critical", ok=2, slo_s=0.25,
                      latencies=[0.01, 0.4])
        failures = slo_report(
            boards=[slow, tenant("best_effort", "best_effort", preempted=1)]
        ).invariant_failures()
        assert any("exceeds" in f for f in failures)
        assert any("missed its SLO on 1 request" in f for f in failures)
        assert "best-effort throughput fell" in slo_report(
            be_ratio=0.5
        ).invariant_failures()[0]
        quiet = [tenant("critical", "critical", ok=1, slo_s=0.25),
                 tenant("best_effort", "best_effort", ok=1)]
        assert "no phase-boundary preemption" in slo_report(
            boards=quiet
        ).invariant_failures()[0]

    def test_json_carries_rows_and_typed_facts(self):
        doc = slo_report(slo_miss_metric={"critical": 0.0}).to_json()
        assert [row["tenant"] for row in doc["tenants"]] == [
            "critical", "best_effort",
        ]
        assert doc["tenants"][0]["slo_ms"] == 250.0
        assert doc["tenants"][1]["slo_ms"] is None
        assert doc["tenants"][1]["preempted"] == 3
        assert doc["be_ratio"] == 0.8 and doc["be_threshold"] == 0.7
        assert doc["slo_miss_metric"] == {"critical": 0.0}

    def test_tenant_lookup(self):
        assert slo_report().board("best_effort").counts["ok"] == 80
        with pytest.raises(ExecutionError, match="no tenant"):
            slo_report().board("nobody")
