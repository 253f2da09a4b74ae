"""Scheduler tournament: every policy against every model, twice.

Each registered scheduling policy (:func:`~repro.core.scheduler.
available_policies`) places each model of a small zoo, and the resulting
placement is priced by the simulator under both transfer disciplines —
the default *lazy* consumer-driven one and the double-buffered *overlap*
discipline (``simulate(..., overlap=True)``).  The output is a league
table: one row per (model, policy) with both latencies and the relative
overlap gain.

The zoo deliberately includes ``xfer_bound``, a transfer-bound model
built here: a heavy recurrent branch produces a *late* boundary tensor
while an 8 MB external input feeds the join directly.  Under the lazy
discipline the bulk host→device copy queues behind the late tensor on
the PCIe link; the overlap discipline ships it during the recurrent
branch's compute, cutting end-to-end latency by ~35% for placements
that put the join on the GPU.

``tournament_winner`` promotes the practical policy (the exhaustive
search is excluded — it is the reference optimum, not a contender) with
the lowest mean normalized latency; it is what ``DEFAULT_POLICY`` in
:mod:`repro.core.scheduler` documents.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.partition import partition_graph
from repro.core.profiler import CompilerAwareProfiler
from repro.core.scheduler import (
    LatencyOracle,
    available_policies,
    schedule_with_policy,
)
from repro.devices.machine import Machine, default_machine
from repro.errors import SchedulingError
from repro.ir.graph import Graph
from repro.models.zoo import build_model

__all__ = [
    "LEAGUE_COLUMNS",
    "TOURNAMENT_MODELS",
    "TINY_TOURNAMENT_MODELS",
    "build_tournament_model",
    "build_xfer_bound_model",
    "run_tournament",
    "tournament_winner",
]

_MS = 1e3

#: Models of the full-size league: four structurally distinct zoo models
#: plus the transfer-bound stress model built in this module.
TOURNAMENT_MODELS = ("wide_deep", "siamese", "mtdnn", "squeezenet", "xfer_bound")

#: The league table: the columns of a :func:`run_tournament` row to show
#: (``format_table(rows, columns=LEAGUE_COLUMNS)``; ``note`` stays out).
LEAGUE_COLUMNS = (
    "model", "policy", "latency_ms", "overlap_ms", "overlap_gain_pct",
)

#: Fast variant for CI smoke runs: same zoo, tiny configurations.
TINY_TOURNAMENT_MODELS = TOURNAMENT_MODELS


def build_xfer_bound_model() -> Graph:
    """A model whose critical path is a mis-ordered PCIe transfer.

    Three parallel branches join with a *direct* 8 MB external input:

    * ``u`` — a 40-step LSTM plus head on the CPU-friendly side; its
      small boundary tensor is produced *late* (~1.2 ms in).
    * ``w1``/``w2`` — trivial scales that keep the phase multi-path and
      give round-robin four subgraphs to alternate over.
    * ``xb`` — 8 MB of float32 features consumed by the join with no
      intermediate compute; it is ready at request arrival.

    The join lists ``u`` first, so a GPU-placed join under the lazy
    discipline serializes the bulk ``xb`` copy *behind* the late ``u``
    transfer; the overlap discipline ships ``xb`` at arrival, entirely
    inside the LSTM's compute window.
    """
    from repro.ir import GraphBuilder
    from repro.models.common import dense_layer, last_timestep, lstm_layer

    b = GraphBuilder("xfer_bound")
    xu = b.input("xu", (1, 40, 256))
    xw1 = b.input("xw1", (1, 64))
    xw2 = b.input("xw2", (1, 64))
    n = 2 * 1024 * 1024  # 8 MB of float32 features
    xb = b.input("xb", (1, n))

    # Late branch: heavy recurrent compute, small output tensor.
    yu = lstm_layer(b, xu, 256, "u_lstm", return_sequences=True)
    yu = last_timestep(b, yu)
    yu = dense_layer(b, yu, 64, "u_head", activation=None)

    # Filler branches: keep the phase multi-path (and the subgraph count
    # even, so round-robin lands the join on the GPU).
    s1 = b.literal(np.asarray([2.0], dtype=np.float32), name="w1_scale")
    yw1 = b.op("multiply", xw1, s1)
    s2 = b.literal(np.asarray([0.5], dtype=np.float32), name="w2_scale")
    yw2 = b.op("multiply", xw2, s2)

    # Join: ``u`` first so the lazy link discipline serves it first.
    j = b.op("concat", yu, yw1, yw2, xb, axis=1)
    j = b.op("reduce_mean", j, axis=1, keepdims=True)
    return b.build(j)


def build_tournament_model(name: str, tiny: bool = False) -> Graph:
    """Resolve a tournament model name: the zoo plus ``xfer_bound``."""
    if name == "xfer_bound":
        # The stress model has one scale: its whole point is the fixed
        # ratio between the LSTM's compute and the 8 MB transfer.
        return build_xfer_bound_model()
    return build_model(name, tiny=tiny)


def run_tournament(
    models: Sequence[str] = TOURNAMENT_MODELS,
    policies: Sequence[str] | None = None,
    machine: Machine | None = None,
    seed: int = 0,
    tiny: bool = False,
) -> list[dict]:
    """Play the league: one row per (model, policy).

    Every policy for one model shares a single memoized lazy
    :class:`LatencyOracle` (scheduling decisions and the reported
    ``latency_ms`` come from it) plus one overlap oracle for the
    ``overlap_ms`` column, so revisited placements cost one simulation.
    """
    machine = machine or default_machine(noisy=False)
    policy_names = tuple(policies) if policies else available_policies()
    unknown = [p for p in policy_names if p not in available_policies()]
    if unknown:
        raise SchedulingError(
            f"unknown tournament policies {unknown}; "
            f"registered: {available_policies()}"
        )
    rows: list[dict] = []
    for model_name in models:
        graph = build_tournament_model(model_name, tiny=tiny)
        partition = partition_graph(graph)
        profiles = CompilerAwareProfiler(machine=machine).profile_partition(
            partition
        )
        lazy = LatencyOracle(graph, partition, profiles, machine)
        overlapped = LatencyOracle(
            graph, partition, profiles, machine, overlap=True
        )
        for policy in policy_names:
            try:
                decision = schedule_with_policy(
                    policy,
                    graph,
                    partition,
                    profiles,
                    machine,
                    oracle=lazy,
                    seed=seed,
                )
            except SchedulingError as exc:
                # e.g. exhaustive search over too many subgraphs — the
                # league records the forfeit instead of crashing.
                rows.append(
                    {
                        "model": model_name,
                        "policy": policy,
                        "latency_ms": float("nan"),
                        "overlap_ms": float("nan"),
                        "overlap_gain_pct": 0.0,
                        "note": str(exc),
                    }
                )
                continue
            lazy_lat = decision.latency
            over_lat = overlapped.measure(decision.placement)
            rows.append(
                {
                    "model": model_name,
                    "policy": policy,
                    "latency_ms": lazy_lat * _MS,
                    "overlap_ms": over_lat * _MS,
                    "overlap_gain_pct": (lazy_lat - over_lat)
                    / lazy_lat
                    * 100.0,
                    "note": "",
                }
            )
    return rows


def tournament_winner(
    rows: Sequence[Mapping[str, object]], column: str = "latency_ms"
) -> str:
    """The practical policy with the lowest mean normalized latency.

    Per model, each policy's latency in ``column`` (``"latency_ms"`` for
    the lazy league, ``"overlap_ms"`` for the overlapped one) is
    normalized by the best finite latency of that model (1.0 = matched
    the best); the winner minimizes the mean over models.
    ``exhaustive`` is excluded — it is the brute-force reference, not a
    deployable policy — and forfeited rows (NaN) score as 2x the
    model's best so a policy that cannot play a model does not win on
    the others.
    """
    by_model: dict[str, list[tuple[str, float]]] = {}
    for row in rows:
        by_model.setdefault(str(row["model"]), []).append(
            (str(row["policy"]), float(row[column]))  # type: ignore[arg-type]
        )
    scores: dict[str, list[float]] = {}
    for entries in by_model.values():
        finite = [lat for _, lat in entries if np.isfinite(lat)]
        if not finite:
            continue
        best = min(finite)
        for policy, lat in entries:
            if policy == "exhaustive":
                continue
            norm = lat / best if np.isfinite(lat) else 2.0
            scores.setdefault(policy, []).append(norm)
    if not scores:
        raise SchedulingError("tournament produced no scorable rows")
    return min(
        scores, key=lambda policy: (float(np.mean(scores[policy])), policy)
    )
