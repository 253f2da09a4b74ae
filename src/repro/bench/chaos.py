"""Serving-level chaos harness: scripted faults against a live frontend.

The resilience layer in :mod:`repro.serving` makes promises — every
admitted request reaches exactly one terminal state, successful responses
stay bit-identical to a solo :class:`~repro.runtime.session.EngineSession`,
the lane keeps serving through a device loss, throughput recovers after
the device returns.  This module *measures* those promises instead of
asserting them in unit-test isolation: :func:`run_chaos_serve` drives
closed-loop load from real client threads against a fault-injected
:class:`~repro.serving.ServingFrontend` while a scripted schedule walks
through fault regimes::

    baseline -> transient kernel faults -> latency stalls
             -> device outage -> recovery (revive + restore)

Each phase gets its own :class:`~repro.bench.loadgen.Scoreboard`
(availability, throughput, p99) and the final :class:`ChaosReport` checks
the invariants across the whole run.  The client threads are
:func:`~repro.bench.loadgen.run_closed_loop`'s; this module only walks
the schedule on the foreground thread.  ``python -m repro chaos-serve``
renders the report; the CI smoke job runs the same schedule at small
scale and fails on any invariant violation.

The injector is a :class:`~repro.runtime.faults.ScriptedChaosInjector`
shared by the whole worker pool, so the harness exercises exactly the
concurrency the frontend ships with — which also means *which* request
observes fault *i* is timing-dependent by design; the invariants must
hold under every interleaving, and each run probes one.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.bench.loadgen import (
    Client,
    HarnessReport,
    Scoreboard,
    reference_corpus,
    run_closed_loop,
)
from repro.errors import ExecutionError

__all__ = [
    "ChaosPhase",
    "ChaosReport",
    "default_chaos_schedule",
    "mixed_serving_opt",
    "run_chaos_serve",
]


@dataclass(frozen=True)
class ChaosPhase:
    """One step of the scripted fault schedule.

    Attributes:
        name: phase label (``baseline``/``transient``/``stall``/
            ``outage``/``recovery`` in the default schedule).
        duration_s: how long load runs under this regime.
        mode: injector mode for the phase (``None`` = healthy,
            ``"transient"``, ``"stall"``).
        rate: every ``rate``-th task attempt misbehaves in
            transient/stall modes.
        stall_s: extra seconds per stalled attempt.
        lose_device: device to kill at phase entry (``None`` = none).
        revive_device: device to revive — and tell the frontend to
            restore — at phase entry.
    """

    name: str
    duration_s: float
    mode: str | None = None
    rate: int = 3
    stall_s: float = 0.0
    lose_device: str | None = None
    revive_device: str | None = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ExecutionError(
                f"phase {self.name!r} duration must be > 0, got "
                f"{self.duration_s}"
            )


def default_chaos_schedule(
    phase_s: float = 1.0, device: str = "gpu"
) -> tuple[ChaosPhase, ...]:
    """The canonical five-phase schedule from the resilience story."""
    return (
        ChaosPhase("baseline", phase_s),
        ChaosPhase("transient", phase_s, mode="transient", rate=4),
        ChaosPhase("stall", phase_s, mode="stall", rate=3, stall_s=2e-3),
        ChaosPhase("outage", phase_s, lose_device=device),
        ChaosPhase("recovery", phase_s, revive_device=device),
    )


@dataclass(kw_only=True)
class ChaosReport(HarnessReport):
    """Everything :func:`run_chaos_serve` measured, invariants included.

    Attributes:
        boards: per-phase scoreboards, in schedule order (requests
            attributed by submit time).
        recovery_ratio: recovery-phase throughput over baseline.
        recovery_threshold: required ``recovery_ratio`` floor.
    """

    recovery_ratio: float
    recovery_threshold: float

    title = "chaos-serve phase scoreboard"
    row_label = "phase"
    columns = (
        "phase", "submitted", "ok", "error", "shed", "rejected", "expired",
        "avail_%", "rps", "p99_ms",
    )
    held = (
        "all resilience invariants held: terminal-state accounting, "
        "bit-identical successes, nonzero outage availability, "
        "recovered throughput"
    )

    def summary_lines(self) -> list[str]:
        return [
            f"recovery throughput: {self.recovery_ratio:.2f}x of baseline "
            f"(required >= {self.recovery_threshold:.2f}x)"
        ]

    def harness_failures(self) -> list[str]:
        failures = []
        outage = next((p for p in self.boards if p.name == "outage"), None)
        if outage is not None and outage.counts["ok"] == 0:
            failures.append(
                "availability hit zero during the outage phase "
                f"(outcomes: {outage.counts})"
            )
        if self.recovery_ratio < self.recovery_threshold:
            failures.append(
                f"post-recovery throughput recovered to only "
                f"{self.recovery_ratio:.2f}x of baseline "
                f"(required >= {self.recovery_threshold:.2f}x)"
            )
        return failures


def mixed_serving_opt(engine, graph):
    """An optimization whose plan spans more than one device.

    The optimizer may legitimately place a tiny model on one device —
    but a chaos run that never touches the device being killed proves
    nothing, so force a round-robin placement (the differential oracle
    guarantees any valid placement stays bit-identical).
    """
    from repro.core import CompilerAwareProfiler, partition_graph
    from repro.core.placement import build_hetero_plan
    from repro.core.schedulers import round_robin_placement

    opt = engine.optimize(graph)
    devices = {task.device for task in opt.plan.tasks}
    if len(devices) > 1:
        return opt
    partition = partition_graph(graph)
    profiles = CompilerAwareProfiler(machine=engine.machine).profile_partition(
        partition
    )
    devices = engine.machine.device_names
    placement = round_robin_placement(partition, devices)
    plan = build_hetero_plan(
        graph, partition, profiles, placement, devices=devices
    )
    return dataclasses.replace(opt, plan=plan, fallback_device=None)


def run_chaos_serve(
    schedule: tuple[ChaosPhase, ...] | None = None,
    model: str = "siamese",
    tiny: bool = True,
    concurrency: int = 4,
    pool_size: int = 2,
    deadline_s: float = 2.0,
    corpus_size: int = 8,
    seed: int = 0,
    recovery_threshold: float = 0.8,
    collect_metrics: bool = True,
) -> ChaosReport:
    """Drive the scripted fault schedule against a live serving frontend.

    Builds a both-device plan for ``model``, computes reference outputs
    for a seeded input corpus on a solo (fault-free) session, then runs
    ``concurrency`` closed-loop client threads against a frontend wired
    with retries, a circuit breaker, deadlines, and a shared
    :class:`~repro.runtime.faults.ScriptedChaosInjector` — while the
    main thread walks ``schedule``, flipping fault modes live.

    Every client-observed outcome is attributed to the phase that
    admitted the request; the returned :class:`ChaosReport` carries the
    per-phase scoreboards and the cross-run invariant checks.
    """
    from repro.core import DuetEngine
    from repro.devices import default_machine
    from repro.models import build_model
    from repro.runtime.faults import ScriptedChaosInjector
    from repro.runtime.resilient import RetryPolicy
    from repro.serving import BreakerConfig, ServingConfig

    schedule = schedule or default_chaos_schedule()
    graph = build_model(model, tiny=tiny)
    engine = DuetEngine(machine=default_machine(noisy=False))
    opt = mixed_serving_opt(engine, graph)
    corpus, expected = reference_corpus(graph, opt, corpus_size, seed)

    injector = ScriptedChaosInjector()
    config = ServingConfig(
        pool_size=pool_size,
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=1e-4),
        default_deadline_s=deadline_s,
        breaker=BreakerConfig(failure_threshold=8, recovery_timeout_s=0.05),
        submit_timeout_s=0.25,
        seed=seed,
    )
    frontend = engine.serve(
        {"chaos": opt}, config=config, fault_injectors={"chaos": injector}
    )

    stats = [
        Scoreboard(labels={"phase": p.name}, duration_s=p.duration_s)
        for p in schedule
    ]
    current_phase = [0]

    def walk_schedule() -> None:
        for index, phase in enumerate(schedule):
            current_phase[0] = index
            if phase.lose_device is not None:
                injector.set_mode(None)
                injector.lose_device(phase.lose_device)
            elif phase.revive_device is not None:
                injector.set_mode(None)
                injector.revive_device(phase.revive_device)
                frontend.restore_device(phase.revive_device, model="chaos")
            else:
                injector.set_mode(
                    phase.mode, rate=phase.rate, stall_s=phase.stall_s
                )
            time.sleep(phase.duration_s)

    try:
        run = run_closed_loop(
            lambda i, client: frontend.submit(
                corpus[i % corpus_size], model="chaos"
            ),
            [Client()] * concurrency,
            lambda i, client: stats[current_phase[0]],
            foreground=walk_schedule,
            expected=expected,
            result_timeout_s=max(4.0, 4 * deadline_s),
        )
    finally:
        frontend.close()

    baseline_rps = stats[0].throughput_rps
    recovery_rps = stats[-1].throughput_rps
    ratio = (recovery_rps / baseline_rps) if baseline_rps > 0 else 0.0
    return ChaosReport(
        boards=stats,
        recovery_ratio=ratio,
        recovery_threshold=recovery_threshold,
        hung_futures=run.hung(),
        mismatches=sum(s.counts["mismatch"] for s in stats),
        unaccounted=run.unaccounted,
        metrics_text=frontend.render_metrics() if collect_metrics else "",
    )
