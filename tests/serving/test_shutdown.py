"""Shutdown tests: no hung futures, drained queues, flushed counters.

The serving layer's hardest invariant is that every admitted request
reaches exactly one terminal state — including when :meth:`close` races
in-flight faulty batches, when a worker loop hits a non-Repro crash, and
when requests land behind the shutdown sentinels.  These tests drive all
three paths, plus the shutdown-time flush of the retry middleware's
counters (the final in-flight batch's deltas used to be lost when the
worker loop exited before its next flush).
"""

import time

import pytest

from repro.core import DuetEngine
from repro.devices import default_machine
from repro.errors import ExecutionError, ReproError
from repro.ir import make_inputs
from repro.models import build_model
from repro.runtime.faults import ScriptedChaosInjector
from repro.runtime.resilient import RetryPolicy
from repro.serving import ServingConfig


@pytest.fixture(scope="module")
def served():
    graph = build_model("wide_deep", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    opt = engine.optimize(graph)
    feeds = make_inputs(graph, seed=0)
    return engine, opt, feeds


class TestCloseSemantics:
    def test_close_fails_requests_behind_the_sentinels(self, served):
        engine, opt, feeds = served
        config = ServingConfig(pool_size=1, batching=False, shedding=False)
        frontend = engine.serve(opt, config=config, autostart=False)
        futures = [frontend.submit(feeds) for _ in range(3)]
        # Workers never started: close() must still drain the queue and
        # fail every waiting future instead of leaving them hung.
        frontend.close()
        for fut in futures:
            assert fut.done()
            with pytest.raises(ReproError, match="closed before the request"):
                fut.result(timeout_s=0.0)
        lane = frontend._lanes["default"]
        assert (
            lane.requests_total.value(model="default", outcome="rejected") == 3
        )
        assert lane.queue_depth.value(model="default") == 0

    def test_submit_after_close_raises(self, served):
        engine, opt, feeds = served
        frontend = engine.serve(opt, config=ServingConfig(pool_size=1))
        frontend.close()
        frontend.close()  # idempotent
        with pytest.raises(ExecutionError, match="closed"):
            frontend.submit(feeds)


class TestShutdownUnderInflightFaults:
    def test_no_hung_futures_when_close_races_faulty_batches(self, served):
        """Satellite invariant: close() during a fault storm leaves no
        ServeFuture unresolved — every one resolves or raises."""
        engine, opt, feeds = served
        injector = ScriptedChaosInjector()
        # Every other attempt faults, no retry middleware: batches fail
        # mid-flight exactly while the sentinels queue up behind them.
        injector.set_mode("transient", rate=2)
        config = ServingConfig(
            pool_size=2,
            batching=True,
            max_batch_size=4,
            max_linger_s=1e-3,
            shedding=False,
        )
        frontend = engine.serve(
            opt, config=config, fault_injectors={"default": injector}
        )
        futures = [frontend.submit(feeds) for _ in range(32)]
        time.sleep(0.005)  # let workers get mid-batch before the close
        frontend.close()
        outcomes = {"ok": 0, "failed": 0}
        for fut in futures:
            assert fut.done(), "close() left an admitted future unresolved"
            try:
                fut.result(timeout_s=0.0)
                outcomes["ok"] += 1
            except ReproError:
                outcomes["failed"] += 1
        # Exactly one terminal state each, and the storm really fired.
        assert sum(outcomes.values()) == len(futures)
        assert outcomes["failed"] > 0

    def test_worker_crash_fails_the_batch_and_keeps_serving(self, served):
        """A non-Repro crash inside batch execution must fail that
        batch's futures (not hang them) and leave the worker alive."""
        engine, opt, feeds = served
        config = ServingConfig(pool_size=1, batching=False, shedding=False)
        with engine.serve(opt, config=config) as frontend:
            lane = frontend._lanes["default"]

            def boom(slot, batch):
                raise RuntimeError("synthetic executor crash")

            lane._run_batch = boom
            fut = frontend.submit(feeds)
            with pytest.raises(
                ExecutionError, match="serving worker failed"
            ) as excinfo:
                fut.result(timeout_s=30.0)
            assert "synthetic executor crash" in str(excinfo.value)
            assert (
                lane.requests_total.value(model="default", outcome="error")
                == 1
            )
            # The worker survived the crash: restore the real executor
            # and the lane serves again.
            del lane._run_batch
            frontend.request(feeds, timeout_s=30.0)


class TestRetryCounterFlush:
    def test_shutdown_flushes_pending_retry_deltas(self, served):
        """White-box: deltas accumulated after the last batch flush must
        reach the registry when the lane shuts down."""
        engine, opt, feeds = served
        config = ServingConfig(
            pool_size=1,
            batching=False,
            shedding=False,
            retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=1e-5),
        )
        frontend = engine.serve(opt, config=config)
        lane = frontend._lanes["default"]
        slot = lane.slots[0]
        # No batch ran, so nothing has flushed these yet.
        slot.retry_counters["retries"] += 3
        slot.retry_counters["faults"] += 2
        frontend.close()
        assert lane.retry_metrics["retries"].value(model="default") == 3
        assert lane.retry_metrics["faults"].value(model="default") == 2

    def test_registry_matches_slot_counters_after_close(self, served):
        """End-to-end: after close(), the registry totals equal the sum
        of every slot's in-memory retry counters — no lost deltas."""
        engine, opt, feeds = served
        injector = ScriptedChaosInjector()
        injector.set_mode("transient", rate=3)
        config = ServingConfig(
            pool_size=2,
            batching=False,
            shedding=False,
            retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=1e-5),
        )
        frontend = engine.serve(
            opt, config=config, fault_injectors={"default": injector}
        )
        futures = [frontend.submit(feeds) for _ in range(24)]
        for fut in futures:
            fut.result(timeout_s=30.0)
        frontend.close()
        lane = frontend._lanes["default"]
        for key in ("faults", "retries", "giveups"):
            total = sum(slot.retry_counters[key] for slot in lane.slots)
            assert lane.retry_metrics[key].value(model="default") == total
        assert (
            sum(slot.retry_counters["retries"] for slot in lane.slots) > 0
        ), "the transient schedule should have forced retries"
