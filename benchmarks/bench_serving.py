"""Wall-clock serving benches: batching, a mixed-priority SLO mix, chaos.

Plain client threads drive a live :class:`~repro.serving.ServingFrontend`
closed loop (:func:`drive`).  Every successful response must be
bit-identical to a solo :class:`~repro.runtime.session.EngineSession`
run, and every request must get an answer; the three tests then hold
one bar each:

* **batching** — stacked dispatch serves >= 1.5x the unbatched
  throughput (400 requests, 8 clients, a stack-safe elementwise chain);
* **SLO mix** — a paced critical tenant sharing a lane with a
  best-effort flood keeps its p99 within its 250 ms SLO with zero
  misses, the flood keeps >= 70% of its isolated throughput, and at
  least one phase-boundary preemption happens;
* **chaos** — baseline, transient faults, stalls, a GPU outage and its
  recovery: the lane answers during the outage and recovers to >= 50%
  of baseline throughput.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py
-q -s``; ``-m slow`` adds a 6 s SLO mix with a heavier flood.
"""

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy as np
import pytest

from conftest import emit

from repro.bench import format_table
from repro.core import DuetEngine
from repro.devices import default_machine
from repro.errors import ReproError
from repro.ir import make_inputs
from repro.models import build_model
from repro.runtime import RetryPolicy
from repro.runtime.faults import ScriptedChaosInjector
from repro.runtime.session import EngineSession
from repro.serving import (
    BreakerConfig,
    ServingConfig,
    TenantConfig,
    TenantRegistry,
)
from repro.testing import elementwise_chain, mixed_serving_opt

#: How long a client waits for one answer before calling it lost.
ANSWER_S = 30.0
CRITICAL_SLO_S = 0.25


def reference_corpus(graph, opt, size=8):
    """``size`` seeded inputs, each with the outputs a solo session gives."""
    solo = EngineSession(opt.plan, opt=opt)
    corpus = []
    for seed in range(size):
        feeds = make_inputs(graph, seed=seed)
        corpus.append((feeds, [np.copy(o) for o in solo.run(feeds).outputs]))
    return corpus


def drive(frontend, corpus, clients, label, *, seconds=None, requests=None,
          foreground=None, model=None):
    """Closed-loop load from one thread per ``(tenant, think_s)`` client.

    A client submits the next corpus entry as its tenant, waits for the
    answer, idles ``think_s`` after a success (1 ms after a refusal) and
    repeats.  A request counts under ``label(tenant)``, read at submit
    time.  The run ends after ``requests`` requests, after ``seconds``,
    or when ``foreground()`` returns.

    Returns ``(counts, latencies, wall_s)``: per label, a Counter of
    outcomes (``"ok"`` or the refusing error's class name) and the
    client latency of each ok request.
    """
    if seconds is not None:
        foreground = functools.partial(time.sleep, seconds)
    counts, latencies = defaultdict(Counter), defaultdict(list)
    problems = []
    index, lock, stop = itertools.count(), threading.Lock(), threading.Event()

    def client(tenant, think_s):
        while not stop.is_set():
            with lock:
                i = next(index)
            if requests is not None and i >= requests:
                return
            feeds, want = corpus[i % len(corpus)]
            key, fut = label(tenant), None
            began = time.perf_counter()
            try:
                fut = frontend.submit(feeds, model=model, tenant=tenant)
                outputs = fut.result(timeout_s=ANSWER_S).outputs
                outcome = "ok"
            except ReproError as exc:
                outcome = type(exc).__name__
            elapsed = time.perf_counter() - began
            with lock:
                if fut is not None and not fut.done():
                    problems.append(f"request {i} unanswered after {ANSWER_S}s")
                counts[key][outcome] += 1
                if outcome == "ok":
                    latencies[key].append(elapsed)
                    if len(outputs) != len(want) or not all(
                        map(np.array_equal, outputs, want)
                    ):
                        problems.append(f"request {i} differs from solo run")
            time.sleep(think_s if outcome == "ok" else 1e-3)

    def run(tenant, think_s):
        try:
            client(tenant, think_s)
        except BaseException as exc:  # a client must never die silently
            with lock:
                problems.append(f"client died: {exc!r}")

    threads = [threading.Thread(target=run, args=c, daemon=True) for c in clients]
    began = time.perf_counter()
    for t in threads:
        t.start()
    if foreground is not None:
        foreground()
        stop.set()
    for t in threads:
        t.join(2 * ANSWER_S)
    wall_s = time.perf_counter() - began
    assert not any(t.is_alive() for t in threads), "a client never returned"
    assert not problems, problems[:5]
    return counts, latencies, wall_s


def _p99_ms(latencies):
    return float(np.percentile(latencies, 99)) * 1e3 if latencies else 0.0


def _row(key, name, counts, latencies, seconds):
    """One table row: a label's answers, throughput, p99 and refusals."""
    return {
        key: name,
        "ok": counts["ok"],
        "rps": counts["ok"] / seconds,
        "p99_ms": _p99_ms(latencies),
        "refused": ", ".join(
            f"{n} {outcome}" for outcome, n in counts.items() if outcome != "ok"
        ) or "-",
    }


def test_batched_throughput_beats_unbatched():
    n_requests, concurrency = 400, 8
    engine = DuetEngine()
    graph = elementwise_chain(batch=4, width=64, depth=6)
    opt = engine.optimize(graph)
    corpus = reference_corpus(graph, opt)
    rows, rps = [], {}
    for arm, batching in (("unbatched", False), ("batched", True)):
        config = ServingConfig(
            queue_capacity=64, batching=batching, max_batch_size=concurrency,
            max_linger_s=2e-3, pool_size=1,
        )
        with engine.serve(opt, config=config) as frontend:
            frontend.request(corpus[0][0])  # warm-up: weights + arena
            counts, _, wall_s = drive(
                frontend, corpus, [(None, 0.0)] * concurrency,
                lambda tenant: arm, requests=n_requests,
            )
            hist = frontend.registry.histogram(
                "duet_request_latency_seconds"
            ).snapshot(model="default")
        assert counts[arm] == {"ok": n_requests}, counts
        rps[arm] = n_requests / wall_s
        rows.append({
            "arm": arm, "throughput_rps": rps[arm],
            **{f"p{q}_ms": hist.quantile(q / 100) * 1e3 for q in (50, 95, 99)},
        })
    emit(format_table(
        rows, title=f"Serving load: {n_requests} requests, {concurrency} clients"
    ))
    speedup = rps["batched"] / rps["unbatched"]
    emit(f"batched/unbatched speedup: {speedup:.2f}x")
    assert speedup >= 1.5, speedup


def _slo_mix(seconds, critical_clients, critical_think_s, best_effort_clients):
    graph = build_model("wide_deep", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    opt = engine.optimize(graph)
    corpus = reference_corpus(graph, opt)
    tenants = TenantRegistry([
        TenantConfig("critical", "critical", weight=4.0, slo_p99_s=CRITICAL_SLO_S),
        TenantConfig("best_effort", "best_effort"),
    ])
    config = ServingConfig(
        tenants=tenants, pool_size=1, submit_timeout_s=1.0, seed=0
    )
    flood = [("best_effort", 0.0)] * best_effort_clients
    paced = [("critical", critical_think_s)] * critical_clients
    # Leg 1: the flood alone measures best-effort's throughput ceiling.
    with engine.serve({"m": opt}, config=config) as frontend:
        isolated, _, _ = drive(
            frontend, corpus, flood, lambda tenant: tenant,
            seconds=seconds, model="m",
        )
    # Leg 2: the same flood plus the paced critical clients.
    with engine.serve({"m": opt}, config=config) as frontend:
        mixed, lat, _ = drive(
            frontend, corpus, paced + flood, lambda tenant: tenant,
            seconds=seconds, model="m",
        )
        registry = frontend.registry
        misses = registry.counter("duet_tenant_slo_miss_total").value(
            model="m", tenant="critical"
        )
        preemptions = sum(
            registry.counter("duet_tenant_preemptions_total").value(
                model="m", tenant=name
            )
            for name in tenants.names
        )
    be_ratio = mixed["best_effort"]["ok"] / max(1, isolated["best_effort"]["ok"])
    emit(format_table(
        [_row("tenant", n, mixed[n], lat[n], seconds) for n in tenants.names],
        title=f"SLO mix: {seconds:g} s per leg",
    ))
    emit(f"best-effort {be_ratio:.2f}x of isolated, "
         f"{preemptions:.0f} preemptions, {misses:.0f} critical SLO misses")
    assert mixed["critical"]["ok"] > 0 and mixed["best_effort"]["ok"] > 0
    # Zero client-seen misses: every critical answer, so its p99 too,
    # within the SLO.
    assert max(lat["critical"]) <= CRITICAL_SLO_S
    assert misses == 0
    assert be_ratio >= 0.7
    assert preemptions >= 1


def test_slo_mix_critical_tail_and_best_effort_share():
    _slo_mix(1.5, critical_clients=1, critical_think_s=0.05,
             best_effort_clients=4)


@pytest.mark.slow
def test_slo_mix_sustained():
    """Longer mix, heavier flood; two callers keep ~17% critical demand."""
    _slo_mix(6.0, critical_clients=2, critical_think_s=0.12,
             best_effort_clients=6)


def test_chaos_phases_keep_answering_and_recover():
    phase_s = 0.6
    graph = build_model("siamese", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    opt = mixed_serving_opt(engine, graph)
    corpus = reference_corpus(graph, opt)
    injector = ScriptedChaosInjector()
    config = ServingConfig(
        pool_size=2,
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=1e-4),
        default_deadline_s=2.0,
        breaker=BreakerConfig(failure_threshold=8, recovery_timeout_s=0.05),
        submit_timeout_s=0.25,
        seed=0,
    )
    phases = ("baseline", "transient", "stall", "outage", "recovery")
    current = [phases[0]]
    with engine.serve(
        {"chaos": opt}, config=config, fault_injectors={"chaos": injector}
    ) as frontend:
        weights_loaded = len(engine.compiler.weights)

        def walk():
            for name in phases:
                current[0] = name
                if name == "transient":
                    injector.set_mode("transient", rate=4)
                elif name == "stall":
                    injector.set_mode("stall", rate=3, stall_s=2e-3)
                elif name == "outage":
                    injector.set_mode(None)
                    injector.lose_device("gpu")
                elif name == "recovery":
                    injector.revive_device("gpu")
                    frontend.restore_device("gpu", model="chaos")
                time.sleep(phase_s)

        counts, lat, _ = drive(
            frontend, corpus, [(None, 0.0)] * 4, lambda tenant: current[0],
            foreground=walk, model="chaos",
        )
    emit(format_table(
        [_row("phase", n, counts[n], lat[n], phase_s) for n in phases],
        title=f"Chaos: {phase_s:g} s per phase",
    ))
    for name in phases:
        assert counts[name].total() > 0, f"phase {name!r} saw no traffic"
    # The lane answers from the surviving device, not just refuses fast.
    assert counts["outage"]["ok"] > 0
    assert counts["recovery"]["ok"] >= 0.5 * counts["baseline"]["ok"]
    # Rebuilding onto the survivor and back generated no weight: every
    # plan reads the engine's one store.
    assert len(engine.compiler.weights) == weights_loaded
