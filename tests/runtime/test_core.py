"""Tests for the unified dispatch core: stack composition, middleware,
worker strategies, and single-device plans."""

import dataclasses
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.compiler import Compiler
from repro.compiler.target import CPU_TARGET
from repro.core import DuetEngine
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    InvariantViolation,
    TransferError,
    TransientKernelError,
)
from repro.ir import make_inputs, run_graph
from repro.models import build_model
from repro.runtime.core import (
    DispatchKernel,
    InlineWorkers,
    InvariantMiddleware,
    TaskContext,
    ThreadedWorkers,
    TracingMiddleware,
    TransferGuardMiddleware,
    build_attempt_stack,
)
from repro.runtime.memory import TensorArena
from repro.runtime.plan import HeteroPlan, single_device_plan
from repro.runtime.simulator import simulate
from repro.runtime.threaded import ThreadedExecutor


@pytest.fixture(scope="module")
def plan_and_graph():
    from repro.devices import default_machine

    graph = build_model("wide_deep", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    return engine.optimize(graph).plan, graph


def _patch_first_kernel(plan, fn):
    """The plan with its first task's first kernel replaced by ``fn``."""
    root = plan.tasks[0]
    k0 = root.module.kernels[0]
    module = dataclasses.replace(
        root.module,
        kernels=[dataclasses.replace(k0, fn=fn)] + list(root.module.kernels[1:]),
    )
    task = dataclasses.replace(root, module=module)
    return HeteroPlan(tasks=[task] + list(plan.tasks[1:]), outputs=plan.outputs)


class TestAttemptStack:
    def test_composes_outermost_first(self):
        calls = []

        def mk(tag):
            def mw(ctx, call_next):
                calls.append(f"{tag}:enter")
                call_next(ctx)
                calls.append(f"{tag}:exit")

            return mw

        stack = build_attempt_stack([mk("outer"), mk("inner")], lambda ctx: calls.append("base"))
        stack(None)
        assert calls == [
            "outer:enter",
            "inner:enter",
            "base",
            "inner:exit",
            "outer:exit",
        ]


class TestWorkerStrategies:
    def test_inline_and_threaded_agree_bitwise(self, plan_and_graph):
        plan, graph = plan_and_graph
        feeds = make_inputs(graph)
        inline = DispatchKernel(plan, workers=InlineWorkers()).run(feeds)
        threaded = DispatchKernel(plan, workers=ThreadedWorkers()).run(feeds)
        for a, b in zip(inline.outputs, threaded.outputs):
            np.testing.assert_array_equal(a, b)
        assert inline.task_worker == threaded.task_worker

    def test_worker_threads_named_and_daemonic(self, plan_and_graph):
        plan, graph = plan_and_graph
        seen: dict[str, tuple[str, bool]] = {}

        def recorder(ctx, call_next):
            thread = threading.current_thread()
            seen[ctx.device] = (thread.name, thread.daemon)
            call_next(ctx)

        DispatchKernel(
            plan, workers=ThreadedWorkers(), middleware=[recorder]
        ).run(make_inputs(graph))
        assert seen  # at least one device actually ran tasks
        for device, (name, daemon) in seen.items():
            assert name == f"duet-worker-{device}"
            assert daemon

    def test_inline_runs_on_calling_thread(self, plan_and_graph):
        plan, graph = plan_and_graph
        names = set()

        def recorder(ctx, call_next):
            names.add(threading.current_thread().name)
            call_next(ctx)

        DispatchKernel(
            plan, workers=InlineWorkers(), middleware=[recorder]
        ).run(make_inputs(graph))
        assert names == {threading.current_thread().name}

    def test_inline_propagates_raw_exceptions(self, plan_and_graph):
        plan, graph = plan_and_graph

        def boom(args):
            raise ValueError("not a runtime error")

        bad = _patch_first_kernel(plan, boom)
        with pytest.raises(ValueError, match="not a runtime error"):
            DispatchKernel(bad, workers=InlineWorkers()).run(make_inputs(graph))

    def test_deadline_times_out_under_default_policy(self, plan_and_graph):
        plan, graph = plan_and_graph
        kernel = DispatchKernel(plan, workers=ThreadedWorkers(), deadline_s=1e-9)
        with pytest.raises(DeadlineExceededError, match="end-to-end deadline"):
            kernel.run(make_inputs(graph))
        # The shutdown block ran: no device worker outlives the dispatch.
        assert not [
            t for t in threading.enumerate() if t.name.startswith("duet-worker-")
        ]

    def test_missing_external_input(self, plan_and_graph):
        plan, _ = plan_and_graph
        with pytest.raises(ExecutionError, match="missing external input"):
            DispatchKernel(plan, workers=InlineWorkers()).run({})

    def test_arena_stops_allocating_and_outputs_match(self, plan_and_graph):
        plan, graph = plan_and_graph
        feeds = make_inputs(graph)
        arena = TensorArena()
        kernel = DispatchKernel(plan, workers=InlineWorkers(), arena=arena)
        first = [np.copy(o) for o in kernel.run(feeds).outputs]
        allocations = arena.allocations
        second = kernel.run(feeds)
        assert arena.allocations == allocations
        for a, b in zip(first, second.outputs):
            np.testing.assert_array_equal(a, b)
        plain = DispatchKernel(plan, workers=InlineWorkers()).run(feeds)
        for a, b in zip(first, plain.outputs):
            np.testing.assert_array_equal(a, b)


class TestTracingMiddleware:
    def test_success_emits_start_finish_pairs(self, plan_and_graph):
        plan, graph = plan_and_graph
        events = []
        DispatchKernel(
            plan,
            workers=InlineWorkers(),
            middleware=[TracingMiddleware(events.append)],
        ).run(make_inputs(graph))
        starts = [e for e in events if e.kind == "task-start"]
        finishes = [e for e in events if e.kind == "task-finish"]
        assert len(starts) == len(plan.tasks)
        assert len(finishes) == len(plan.tasks)
        assert {e.task_id for e in starts} == {t.task_id for t in plan.tasks}
        assert all(e.attempt == 1 for e in events)
        times = [e.time_s for e in events]
        assert times == sorted(times)

    def test_error_emits_task_error_and_reraises(self):
        events = []
        mw = TracingMiddleware(events.append)
        ctx = TaskContext(task=SimpleNamespace(task_id="t0"), device="cpu")

        def boom(ctx):
            raise TransientKernelError("flaky kernel")

        with pytest.raises(TransientKernelError):
            mw(ctx, boom)
        assert [e.kind for e in events] == ["task-start", "task-error"]
        assert "flaky kernel" in events[-1].detail


class TestTransferGuardMiddleware:
    def _ctx(self, value):
        ctx = TaskContext(task=SimpleNamespace(task_id="t0"), device="gpu")
        ctx.crossed = {"x"}
        ctx.feeds = {"x": value}
        return ctx

    def test_rejects_non_finite_crossed_tensor(self):
        ctx = self._ctx(np.array([1.0, np.nan], dtype=np.float32))
        with pytest.raises(TransferError, match="non-finite tensor arrived"):
            TransferGuardMiddleware()(ctx, lambda ctx: None)

    def test_passes_finite_tensors(self):
        ran = []
        ctx = self._ctx(np.array([1.0, 2.0], dtype=np.float32))
        TransferGuardMiddleware()(ctx, lambda ctx: ran.append(True))
        assert ran == [True]

    def test_ignores_uncrossed_tensors(self):
        ctx = self._ctx(np.array([np.inf], dtype=np.float32))
        ctx.crossed = set()  # same-device feed: the guard must not look
        ran = []
        TransferGuardMiddleware()(ctx, lambda ctx: ran.append(True))
        assert ran == [True]


class TestInvariantMiddleware:
    def test_healthy_run_passes(self, plan_and_graph):
        plan, graph = plan_and_graph
        DispatchKernel(
            plan,
            workers=InlineWorkers(),
            middleware=[InvariantMiddleware()],
        ).run(make_inputs(graph))

    def test_flags_wrong_shape_and_dtype(self, plan_and_graph):
        plan, _ = plan_and_graph
        task = plan.tasks[0]
        ctx = TaskContext(task=task, device=task.device)

        def fake_execute(ctx):
            ctx.env = {
                out: np.zeros((), dtype=np.float16)
                for out in task.module.output_ids
            }

        with pytest.raises(InvariantViolation) as err:
            InvariantMiddleware()(ctx, fake_execute)
        text = str(err.value)
        assert "has shape" in text or "has dtype" in text

    def test_flags_missing_output(self, plan_and_graph):
        plan, _ = plan_and_graph
        task = plan.tasks[0]
        ctx = TaskContext(task=task, device=task.device)

        def fake_execute(ctx):
            ctx.env = {}

        with pytest.raises(InvariantViolation, match="never produced"):
            InvariantMiddleware()(ctx, fake_execute)


class TestSingleDevicePlan:
    def test_simulate_carries_outputs(self, plan_and_graph):
        from repro.devices import default_machine

        _, graph = plan_and_graph
        module = Compiler().compile(graph, CPU_TARGET)
        result = simulate(
            single_device_plan(module, "cpu"),
            default_machine(noisy=False),
            inputs=make_inputs(graph),
        )
        ref = run_graph(graph, make_inputs(graph))
        for got, want in zip(result.outputs, ref):
            np.testing.assert_array_equal(got, np.asarray(want))


class TestThreadedRunWithoutInputs:
    def test_raises_before_starting_workers(self, plan_and_graph):
        plan, _ = plan_and_graph
        with pytest.raises(ExecutionError, match="needs inputs"):
            ThreadedExecutor(plan).run(None)
        assert not [
            t for t in threading.enumerate() if t.name.startswith("duet-worker-")
        ]
