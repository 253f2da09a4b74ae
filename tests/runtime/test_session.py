"""Tests for reusable engine sessions (plan once, serve many)."""

import threading

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.ir import make_inputs
from repro.models import build_model
from repro.runtime.core import CoreResult
from repro.runtime.session import EngineSession


@pytest.fixture(scope="module")
def served():
    """One graph, its engine, and the inputs every test reuses."""
    from repro.devices import default_machine

    graph = build_model("wide_deep", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    return engine, graph, make_inputs(graph)


class TestEngineSession:
    def test_repeated_calls_bit_identical_to_fresh_engine_run(self, served):
        engine, graph, feeds = served
        session = engine.session(graph)
        ref = engine.run(session.opt, feeds).outputs
        for _ in range(3):
            result = session.run(feeds)
            assert isinstance(result, CoreResult)
            assert len(result.outputs) == len(ref)
            for got, want in zip(result.outputs, ref):
                np.testing.assert_array_equal(got, want)

    def test_outputs_survive_later_requests(self, served):
        engine, graph, feeds = served
        session = engine.session(graph)
        first = session.run(feeds).outputs
        kept = [np.copy(o) for o in first]
        session.run(feeds)  # overwrites the arena's buffers
        for a, b in zip(first, kept):
            np.testing.assert_array_equal(a, b)

    def test_arena_stops_allocating_after_warmup(self, served):
        engine, graph, feeds = served
        session = engine.session(graph)
        session.run(feeds)
        allocations = session.arena.allocations
        buffers = session.arena.buffer_count
        for _ in range(5):
            session.run(feeds)
        assert session.arena.allocations == allocations
        assert session.arena.buffer_count == buffers

    def test_preallocation_covers_first_request(self, served):
        engine, graph, feeds = served
        session = engine.session(graph)
        before = session.arena.allocations
        assert before == 1  # one pool, planned at construction
        session.run(feeds)
        assert session.arena.allocations == before

    def test_session_from_existing_optimization(self, served):
        engine, graph, feeds = served
        opt = engine.optimize(graph)
        session = engine.session(opt)
        assert session.opt is opt
        assert session.plan is opt.plan
        result = session.run(feeds)
        for got, want in zip(result.outputs, engine.run(opt, feeds).outputs):
            np.testing.assert_array_equal(got, want)

    def test_run_many_counts_requests(self, served):
        engine, graph, feeds = served
        session = engine.session(graph)
        results = session.run_many([feeds] * 4)
        assert len(results) == 4
        assert session.requests_served == 4
        assert all(r.wall_time_s > 0 for r in results)

    def test_trace_sink_sees_every_task(self, served):
        engine, graph, feeds = served
        events = []
        session = engine.session(graph, trace_sink=events.append)
        session.run(feeds)
        n_tasks = len(session.plan.tasks)
        assert sum(e.kind == "task-start" for e in events) == n_tasks
        assert sum(e.kind == "task-finish" for e in events) == n_tasks

    def test_direct_construction_from_plan(self, served):
        engine, graph, feeds = served
        opt = engine.optimize(graph)
        session = EngineSession(opt.plan)
        result = session.run(feeds)
        for got, want in zip(result.outputs, engine.run(opt, feeds).outputs):
            np.testing.assert_array_equal(got, want)


class TestSessionThreadSafety:
    def test_concurrent_sessions_smoke(self, served):
        """Separate sessions serve concurrently without interference."""
        engine, graph, feeds = served
        opt = engine.optimize(graph)
        ref = engine.run(opt, feeds).outputs
        failures = []

        def serve():
            try:
                session = engine.session(opt)
                for _ in range(3):
                    for got, want in zip(session.run(feeds).outputs, ref):
                        np.testing.assert_array_equal(got, want)
            except Exception as exc:  # noqa: BLE001 - surfaced to the test
                failures.append(exc)

        threads = [threading.Thread(target=serve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not failures, failures

    def test_shared_session_serializes_runs(self, served):
        """One session's lock serializes concurrent run() calls."""
        engine, graph, feeds = served
        session = engine.session(graph)
        ref = session.run(feeds).outputs
        failures = []

        def serve():
            try:
                for _ in range(3):
                    for got, want in zip(session.run(feeds).outputs, ref):
                        np.testing.assert_array_equal(got, want)
            except Exception as exc:  # noqa: BLE001 - surfaced to the test
                failures.append(exc)

        threads = [threading.Thread(target=serve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not failures, failures
        assert session.requests_served == 1 + 4 * 3
