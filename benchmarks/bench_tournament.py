"""Scheduler tournament: every policy x every model, lazy vs. overlap.

Expected shape: the measurement-driven policies (dp / greedy / heft)
cluster at the optimum on the regular zoo models; random and round-robin
trail.  On the transfer-bound stress model the overlap column shows the
double-buffered transfer discipline recovering the PCIe time the lazy
link discipline wastes queueing an 8 MB input behind a late tensor.
"""

from conftest import emit

from repro.bench import (
    LEAGUE_COLUMNS,
    format_table,
    run_tournament,
    tournament_winner,
)


def test_tournament_league(benchmark, machine):
    rows = benchmark.pedantic(
        run_tournament,
        kwargs={"machine": machine},
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            rows,
            title="Scheduler tournament (lazy vs. overlapped transfers)",
            columns=LEAGUE_COLUMNS,
        )
    )
    lazy_winner = tournament_winner(rows)
    overlap_winner = tournament_winner(rows, column="overlap_ms")
    emit(
        f"league winners — lazy: {lazy_winner}, "
        f"overlapped: {overlap_winner}"
    )

    # Every policy plays every model (forfeits appear as NaN rows).
    models = {r["model"] for r in rows}
    policies = {r["policy"] for r in rows}
    assert len(models) >= 4 and len(policies) >= 5
    assert len(rows) == len(models) * len(policies)

    # Overlap never hurts a placement and wins on the transfer-bound model.
    assert all(
        r["overlap_ms"] <= r["latency_ms"] + 1e-9
        for r in rows
        if r["latency_ms"] == r["latency_ms"]  # skip NaN forfeits
    )
    gains = [
        r["overlap_gain_pct"] for r in rows if r["model"] == "xfer_bound"
    ]
    assert max(gains) > 20.0
