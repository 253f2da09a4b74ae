"""Mixed-priority SLO benchmark: critical latency vs best-effort throughput.

The multi-tenant scheduling stack in :mod:`repro.serving` makes a
two-sided promise: a critical tenant's latency target holds *and* the
best-effort tenant is not starved to get there — strict priority plus
phase-boundary preemption bound the critical tail, while WFQ and the
anti-starvation escape keep bulk traffic flowing.  :func:`run_slo_mix`
measures both sides against a live frontend:

1. **isolated leg** — best-effort clients alone, closed loop, measuring
   the throughput ceiling;
2. **mixed leg** — the same best-effort flood plus paced critical
   clients (think time between requests, like an interactive caller)
   under a fresh frontend.

The :class:`SLOReport` then checks the acceptance invariants from the
issue: critical p99 within its SLO target with **zero** misses, the
best-effort tenant keeping at least ``be_threshold`` (default 70%) of
its isolated throughput, at least one phase-boundary preemption
actually observed (the run exercised the machinery, not a quiet lane),
and every successful response — preempted or not — bit-identical to a
solo :class:`~repro.runtime.session.EngineSession`.

Both legs are :func:`~repro.bench.loadgen.run_closed_loop` with a
foreground function that sleeps one leg; requests count under their
tenant's :class:`~repro.bench.loadgen.Scoreboard`.

``python -m repro slo-bench`` renders the scoreboard; the CI
``slo-smoke`` job runs a short configuration and uploads the report's
``to_json()`` as an artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.loadgen import (
    TENANT_COLUMNS,
    Client,
    HarnessReport,
    Scoreboard,
    record_preemptions,
    reference_corpus,
    run_closed_loop,
    tenant_scoreboards,
)
from repro.errors import ExecutionError

__all__ = ["SLOReport", "run_slo_mix"]


@dataclass(kw_only=True)
class SLOReport(HarnessReport):
    """Everything :func:`run_slo_mix` measured, invariants included.

    Attributes:
        boards: per-tenant scoreboards of the mixed leg.
        isolated_be_rps: best-effort throughput with no competition.
        be_ratio: mixed best-effort throughput over ``isolated_be_rps``.
        be_threshold: required ``be_ratio`` floor.
        slo_miss_metric: per-tenant ``duet_tenant_slo_miss_total``
            values from the frontend's registry (server-side view of
            the client-observed ``slo_misses``).
    """

    isolated_be_rps: float
    be_ratio: float
    be_threshold: float
    slo_miss_metric: dict[str, float] = field(default_factory=dict)

    title = "slo-mix tenant scoreboard"
    row_label = "tenant"
    columns = TENANT_COLUMNS
    held = (
        "all SLO invariants held: terminal-state accounting, critical p99 "
        "in target with zero misses, best-effort throughput preserved, "
        "preemption exercised, bit-identical responses"
    )

    @property
    def preemptions(self) -> int:
        """Phase-boundary suspensions observed in the mixed leg."""
        return sum(stats.preempted for stats in self.boards)

    def summary_lines(self) -> list[str]:
        return [
            f"best-effort throughput: {self.be_ratio:.2f}x of isolated "
            f"baseline ({self.isolated_be_rps:.1f} rps; required >= "
            f"{self.be_threshold:.2f}x)",
            f"phase-boundary preemptions: {self.preemptions}",
        ]

    def harness_failures(self) -> list[str]:
        failures = []
        for stats in self.boards:
            if stats.slo_p99_s is None:
                continue
            p99 = stats.p99_s()
            if p99 > stats.slo_p99_s:
                failures.append(
                    f"tenant {stats.name!r} p99 {p99 * 1e3:.1f}ms exceeds "
                    f"its {stats.slo_p99_s * 1e3:.1f}ms SLO target"
                )
            if stats.labels["class"] == "critical" and stats.slo_misses:
                failures.append(
                    f"critical tenant {stats.name!r} missed its SLO on "
                    f"{stats.slo_misses} request(s); required zero"
                )
        if self.be_ratio < self.be_threshold:
            failures.append(
                f"best-effort throughput fell to {self.be_ratio:.2f}x of "
                f"its isolated baseline (required >= "
                f"{self.be_threshold:.2f}x)"
            )
        if self.preemptions < 1:
            failures.append(
                "no phase-boundary preemption was observed; the mixed "
                "load never exercised the preemption machinery"
            )
        return failures


def run_slo_mix(
    duration_s: float = 2.0,
    model: str = "wide_deep",
    tiny: bool = True,
    critical_clients: int = 1,
    critical_think_s: float = 0.05,
    critical_slo_s: float = 0.25,
    best_effort_clients: int = 4,
    corpus_size: int = 8,
    seed: int = 0,
    be_threshold: float = 0.7,
    pool_size: int = 1,
    collect_metrics: bool = True,
) -> SLOReport:
    """Measure the two-sided SLO promise against a live frontend.

    Args:
        duration_s: length of *each* leg (isolated, then mixed).
        model / tiny: the served zoo model; the default ``wide_deep``
            is the multi-phase model, so preemption points exist.
        critical_clients: paced interactive clients on the critical
            tenant.
        critical_think_s: idle time between a critical client's
            completion and its next submit (bounds critical demand so
            best-effort is measurable).
        critical_slo_s: the critical tenant's p99 SLO target.
        best_effort_clients: closed-loop flood threads on the
            best-effort tenant.
        corpus_size / seed: the shared seeded input corpus.
        be_threshold: required mixed/isolated best-effort throughput
            ratio.
        pool_size: lane worker threads (1 keeps contention maximal and
            the preemption story observable).
    """
    from repro.core import DuetEngine
    from repro.devices import default_machine
    from repro.models import build_model
    from repro.serving import ServingConfig, TenantConfig, TenantRegistry

    if duration_s <= 0:
        raise ExecutionError(f"duration_s must be > 0, got {duration_s}")
    if critical_clients < 1 or best_effort_clients < 1:
        raise ExecutionError(
            "need at least one client per tenant: got "
            f"critical={critical_clients}, best_effort={best_effort_clients}"
        )

    graph = build_model(model, tiny=tiny)
    engine = DuetEngine(machine=default_machine(noisy=False))
    opt = engine.optimize(graph)
    corpus, expected = reference_corpus(graph, opt, corpus_size, seed)

    tenants = TenantRegistry(
        [
            TenantConfig(
                name="critical",
                priority="critical",
                weight=4.0,
                slo_p99_s=critical_slo_s,
            ),
            TenantConfig(name="best_effort", priority="best_effort"),
        ]
    )
    config = ServingConfig(
        tenants=tenants,
        pool_size=pool_size,
        submit_timeout_s=1.0,
        seed=seed,
    )
    flood = [Client("best_effort")] * best_effort_clients
    paced = [Client("critical", critical_think_s)] * critical_clients

    def leg(frontend, clients):
        """One leg: ``clients`` against ``frontend`` for ``duration_s``."""
        boards = tenant_scoreboards(tenants, duration_s)
        run = run_closed_loop(
            lambda i, client: frontend.submit(
                corpus[i % corpus_size], model=model, tenant=client.tenant
            ),
            clients,
            lambda i, client: boards[client.tenant],
            foreground=lambda: time.sleep(duration_s),
            expected=expected,
            result_timeout_s=30.0,
        )
        record_preemptions(boards, frontend, model)
        return boards, run

    # Leg 1: best-effort alone — the throughput ceiling.
    with engine.serve({model: opt}, config=config) as frontend:
        iso, iso_run = leg(frontend, flood)

    # Leg 2: the mixed-priority run under a fresh frontend.
    with engine.serve({model: opt}, config=config) as frontend:
        mixed, run = leg(frontend, paced + flood)
        miss_counter = frontend.registry.counter("duet_tenant_slo_miss_total")
        slo_miss_metric = {
            name: miss_counter.value(model=model, tenant=name)
            for name in mixed
        }
        metrics_text = frontend.render_metrics() if collect_metrics else ""

    iso_rps = iso["best_effort"].throughput_rps
    be_rps = mixed["best_effort"].throughput_rps
    both_legs = [*iso.values(), *mixed.values()]
    return SLOReport(
        boards=list(mixed.values()),
        isolated_be_rps=iso_rps,
        be_ratio=(be_rps / iso_rps) if iso_rps > 0 else 0.0,
        be_threshold=be_threshold,
        slo_miss_metric=slo_miss_metric,
        hung_futures=iso_run.hung() + run.hung(),
        unaccounted=iso_run.unaccounted + run.unaccounted,
        mismatches=sum(b.counts["mismatch"] for b in both_legs),
        metrics_text=metrics_text,
    )
