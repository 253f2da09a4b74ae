"""Scheduler tournament: league coverage, determinism, and the overlap win."""

import math

import pytest

from repro.bench import (
    TOURNAMENT_MODELS,
    build_tournament_model,
    run_tournament,
    tournament_winner,
)
from repro.core.scheduler import DEFAULT_POLICY, available_policies
from repro.devices import default_machine
from repro.errors import SchedulingError


@pytest.fixture(scope="module")
def league():
    return run_tournament(machine=default_machine(noisy=False), tiny=True)


class TestCoverage:
    def test_every_policy_plays_every_model(self, league):
        models = {r["model"] for r in league}
        policies = {r["policy"] for r in league}
        assert models == set(TOURNAMENT_MODELS)
        assert len(models) >= 4
        assert policies == set(available_policies())
        assert len(policies) >= 5
        assert len(league) == len(models) * len(policies)

    def test_forfeits_are_recorded_not_crashed(self, league):
        # The exhaustive policy forfeits models beyond its subgraph cap;
        # a forfeit carries a NaN latency and an explanatory note.
        for row in league:
            if math.isnan(row["latency_ms"]):
                assert row["note"]

    def test_xfer_bound_model_builds(self):
        graph = build_tournament_model("xfer_bound")
        assert graph.name == "xfer_bound"
        # Zoo names still resolve through the same entry point.
        assert build_tournament_model("siamese", tiny=True) is not None


class TestDeterminism:
    def test_league_identical_under_fixed_seed(self, league):
        rerun = run_tournament(machine=default_machine(noisy=False), tiny=True)
        assert len(rerun) == len(league)
        for a, b in zip(league, rerun):
            assert a["model"] == b["model"] and a["policy"] == b["policy"]
            if math.isnan(a["latency_ms"]):
                assert math.isnan(b["latency_ms"])
            else:
                assert a["latency_ms"] == b["latency_ms"]
                assert a["overlap_ms"] == b["overlap_ms"]

    def test_seed_changes_random_row(self):
        models = ("xfer_bound",)
        a = run_tournament(models=models, policies=("random",), seed=0)
        b = run_tournament(models=models, policies=("random",), seed=3)
        assert a[0]["latency_ms"] != b[0]["latency_ms"]


class TestOverlapColumn:
    def test_overlap_wins_on_the_transfer_bound_model(self, league):
        gains = [
            r["overlap_gain_pct"]
            for r in league
            if r["model"] == "xfer_bound"
        ]
        assert max(gains) > 20.0

    def test_overlap_never_slower_on_this_league(self, league):
        for r in league:
            if not math.isnan(r["latency_ms"]):
                assert r["overlap_ms"] <= r["latency_ms"] + 1e-9


class TestWinner:
    def test_lazy_winner_is_the_documented_default(self, league):
        assert tournament_winner(league) == DEFAULT_POLICY

    def test_overlap_league_promotes_greedy(self, league):
        assert tournament_winner(league, column="overlap_ms") == "greedy"

    def test_exhaustive_never_wins(self, league):
        assert tournament_winner(league) != "exhaustive"

    def test_empty_league_raises(self):
        with pytest.raises(SchedulingError):
            tournament_winner([])


class TestReporting:
    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError, match="unknown"):
            run_tournament(models=("siamese",), policies=("alphazero",))
