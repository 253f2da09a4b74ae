"""Concurrent differential stress: serving == solo oracle, bit for bit.

K worker threads hammer the serving frontend with fuzzer-generated
models and seeded inputs; every response must be `np.array_equal` to a
solo :class:`~repro.runtime.session.EngineSession` run of the same
(model, input) pair — the serving layer's core contract.  Four arms:

* batching off — pure admission/pooling concurrency;
* forced batching — long linger windows so requests to the stack-safe
  lanes genuinely coalesce (asserted via the batch counters) and execute
  stacked, while the other lanes dispatch each request on dequeue;
* fault injection — transient kernel faults and corrupted transfers
  under a retry middleware stack, still bit-identical;
* critical tier — the forced-batching arm submitted as a tier-0 tenant,
  so the dispatch walk runs without a preemption predicate (the other
  arms, standard tier, always pass one).

Run it alone (the CI ``serving-stress`` job does) with::

    PYTHONPATH=src python -m pytest tests/serving/test_stress.py -q
"""

import threading

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.ir import make_inputs
from repro.runtime.faults import FaultInjector, FaultPlan, KernelFault, TransferFault
from repro.runtime.resilient import RetryPolicy
from repro.runtime.session import EngineSession
from repro.serving import ServingConfig, TenantConfig, TenantRegistry
from repro.testing import GeneratorConfig, case_rng, generate_graph

SEED = 20260806  # fixed: CI replays the exact same campaign
N_THREADS = 8
N_REQUESTS = 240
N_MODELS = 6
N_INPUT_SEEDS = 5


@pytest.fixture(scope="module")
def fleet():
    """Optimized models plus precomputed solo-oracle outputs."""
    engine = DuetEngine()
    models = {}
    expected = {}
    for m in range(N_MODELS):
        # Half the fleet restricted to stack-safe families (these lanes
        # exercise stacked execution under forced batching), half drawing
        # from every family (dense/recurrent/slice lanes exercise
        # per-request dispatch).
        if m % 2 == 0:
            config = GeneratorConfig(
                max_ops=10,
                families={"unary": 1.0, "binary": 1.0, "reduction": 0.5},
            )
        else:
            config = GeneratorConfig(max_ops=10)
        graph = generate_graph(case_rng(SEED, m), config, name=f"model{m}")
        opt = engine.optimize(graph)
        name = f"model{m}"
        models[name] = opt
        solo = EngineSession(opt.plan)
        for k in range(N_INPUT_SEEDS):
            feeds = make_inputs(graph, seed=SEED + k)
            expected[(name, k)] = (feeds, solo.run(feeds).outputs)
    return engine, models, expected


def _hammer(frontend, expected, n_requests, n_threads, tenant=None):
    """Drive the frontend from ``n_threads`` threads; returns mismatches."""
    names = sorted({name for name, _ in expected})
    errors = []
    lock = threading.Lock()
    counter = iter(range(n_requests))

    def loop():
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            name = names[index % len(names)]
            k = (index // len(names)) % N_INPUT_SEEDS
            feeds, want = expected[(name, k)]
            try:
                result = frontend.request(
                    feeds, model=name, timeout_s=60.0, tenant=tenant
                )
            except Exception as exc:  # collected, not raised mid-thread
                with lock:
                    errors.append(f"request {index} ({name}): {exc!r}")
                continue
            ok = len(result.outputs) == len(want) and all(
                np.array_equal(g, w)
                for g, w in zip(result.outputs, want)
            )
            if not ok:
                with lock:
                    errors.append(
                        f"request {index} ({name}, seed {k}): outputs differ"
                    )

    threads = [
        threading.Thread(target=loop, name=f"stress-{i}", daemon=True)
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


def test_stress_unbatched_bit_identical(fleet):
    engine, models, expected = fleet
    config = ServingConfig(batching=False, pool_size=2, queue_capacity=64)
    with engine.serve(models, config=config) as frontend:
        errors = _hammer(frontend, expected, N_REQUESTS, N_THREADS)
        assert not errors, errors[:5]
        total = frontend.registry.counter("duet_requests_total").total()
    assert total == N_REQUESTS


def test_stress_forced_batching_bit_identical(fleet):
    engine, models, expected = fleet
    config = ServingConfig(
        batching=True,
        max_batch_size=N_THREADS,
        max_linger_s=0.02,  # long enough that concurrent requests coalesce
        pool_size=1,
        queue_capacity=64,
    )
    with engine.serve(models, config=config) as frontend:
        errors = _hammer(frontend, expected, N_REQUESTS, N_THREADS)
        assert not errors, errors[:5]
        registry = frontend.registry
        batches = registry.counter("duet_batches_total").total()
        requests = registry.counter("duet_requests_total").total()
    assert requests == N_REQUESTS
    # Batching actually happened: strictly fewer dispatches than requests.
    assert batches < requests, (batches, requests)


def test_stress_critical_tier_bit_identical(fleet):
    """Tier 0 passes no preemption predicate: the same walk, never
    suspended, per-request and stacked, still exact."""
    engine, models, expected = fleet
    config = ServingConfig(
        batching=True,
        max_batch_size=N_THREADS,
        max_linger_s=0.02,
        pool_size=1,
        queue_capacity=64,
        tenants=TenantRegistry([TenantConfig(name="vip", priority="critical")]),
    )
    with engine.serve(models, config=config) as frontend:
        errors = _hammer(frontend, expected, N_REQUESTS, N_THREADS, tenant="vip")
        assert not errors, errors[:5]
        registry = frontend.registry
        requests = registry.counter("duet_tenant_requests_total")
        served = sum(
            requests.value(model=name, tenant="vip", outcome="ok")
            for name in models
        )
        stacked = sum(
            registry.counter("duet_batches_total").value(model=name, mode="stacked")
            for name in models
        )
        assert registry.counter("duet_tenant_preemptions_total").total() == 0
    assert served == N_REQUESTS
    assert stacked > 0  # already-waiting critical work still coalesces


def test_stress_faulty_middleware_stack_bit_identical(fleet):
    """Transient kernel faults + corrupted transfers, retried, still exact."""
    engine, models, expected = fleet
    injectors = {}
    for name, opt in models.items():
        tasks = opt.plan.tasks
        kernel_faults = [KernelFault(tasks[0].task_id, fail_attempts=2)]
        transfer_faults = []
        crossing = [
            task
            for task in tasks
            for src in task.sources.values()
            if src.kind == "task" and opt.plan.task(src.ref).device != task.device
        ]
        if crossing:
            task = crossing[0]
            src = next(
                s
                for s in task.sources.values()
                if s.kind == "task"
                and opt.plan.task(s.ref).device != task.device
            )
            transfer_faults.append(
                TransferFault(
                    src.ref, task.device, mode="corrupt", fail_attempts=1
                )
            )
        injectors[name] = FaultInjector(
            FaultPlan(
                kernel_faults=tuple(kernel_faults),
                transfer_faults=tuple(transfer_faults),
                seed=SEED,
            )
        )
    config = ServingConfig(
        batching=True,
        max_batch_size=4,
        max_linger_s=0.005,
        pool_size=1,  # injectors are stateful and not thread-safe
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=1e-4),
        validate_transfers=True,  # corrupt transfers become retryable faults
        queue_capacity=64,
    )
    with engine.serve(models, config=config, fault_injectors=injectors) as frontend:
        errors = _hammer(frontend, expected, N_REQUESTS, N_THREADS)
        assert not errors, errors[:5]
        registry = frontend.registry
        # The injected chaos was really exercised and really retried.
        assert registry.counter("duet_faults_total").total() > 0
        assert registry.counter("duet_retries_total").total() > 0
        assert registry.counter("duet_giveups_total").total() == 0
        ok = registry.counter("duet_requests_total")
        assert (
            sum(
                ok.value(model=name, outcome="ok")
                for name in models
            )
            == N_REQUESTS
        )


def test_admission_control_rejects_when_full(fleet):
    """QueueFullError backpressure on a saturated reject-mode queue."""
    engine, models, _ = fleet
    from repro.errors import QueueFullError

    name = sorted(models)[0]
    opt = models[name]
    feeds = make_inputs(opt.graph, seed=SEED)
    config = ServingConfig(
        admission="reject", queue_capacity=2, batching=False, pool_size=1
    )
    frontend = engine.serve(
        {name: opt}, config=config, autostart=False
    )
    frontend.submit(feeds, model=name)
    frontend.submit(feeds, model=name)
    with pytest.raises(QueueFullError, match="full"):
        frontend.submit(feeds, model=name)
    rejected = frontend.registry.counter("duet_requests_total").value(
        model=name, outcome="rejected"
    )
    assert rejected == 1
    # Draining the queue un-blocks admission again.
    frontend.start()
    frontend.close()
