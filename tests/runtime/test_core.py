"""Tests for the unified dispatch core: stack composition, middleware,
the lowered program under both executors, and single-device plans."""

import dataclasses
import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.compiler import Compiler
from repro.compiler.target import CPU_TARGET
from repro.core import CompilerAwareProfiler, DuetEngine, partition_graph
from repro.core.placement import build_hetero_plan
from repro.core.schedulers.round_robin import round_robin_placement
from repro.devices import default_machine
from repro.errors import (
    DeviceLostError,
    ExecutionError,
    InvariantViolation,
    TransferError,
    TransientKernelError,
)
from repro.ir import make_inputs, run_graph
from repro.models import MODEL_NAMES, build_model
from repro.runtime.core import (
    DispatchKernel,
    InvariantMiddleware,
    RetryMiddleware,
    RetryPolicy,
    TaskContext,
    TracingMiddleware,
    TransferGuardMiddleware,
    build_attempt_stack,
)
from repro.runtime.faults import FaultInjector
from repro.runtime.memory import TensorArena
from repro.runtime.plan import HeteroPlan, single_device_plan
from repro.runtime.simulator import simulate
from repro.runtime.threaded import ThreadedExecutor
from repro.testing.generators import generate_cases


@pytest.fixture(scope="module")
def plan_and_graph():
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


class _TransferRecorder(FaultInjector):
    """Injects nothing; records every transfer hook call."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self._lock = threading.Lock()

    def on_transfer(self, ref, dest_device, array):
        with self._lock:
            self.calls.append((ref, dest_device))
        return array


def _cross_device_edges(plan):
    """``(source ref, destination device)`` of every module input whose
    tensor changes device on its way in (model inputs start on the host)."""
    device = {t.task_id: t.device for t in plan.tasks}
    return Counter(
        (src.ref, task.device)
        for task in plan.tasks
        for src in task.sources.values()
        if (device[src.ref] if src.kind == "task" else "cpu") != task.device
    )


@pytest.fixture(scope="module")
def lowering_subjects():
    """``(name, plan, feeds)`` for every tiny zoo model's plan, and for the
    first 20 graphs of fuzz campaign 0 under the engine's plan and a
    round-robin plan (which guarantees cross-device edges)."""
    machine = default_machine(noisy=False)
    engine = DuetEngine(machine=machine)
    profiler = CompilerAwareProfiler(machine=machine)
    subjects = []
    for name in MODEL_NAMES:
        graph = build_model(name, tiny=True)
        subjects.append((name, engine.optimize(graph).plan, make_inputs(graph)))
    for case in generate_cases(0, 20):
        graph = case.graph
        partition = partition_graph(graph)
        alt = build_hetero_plan(
            graph,
            partition,
            profiler.profile_partition(partition),
            round_robin_placement(partition),
        )
        feeds = make_inputs(graph)
        subjects.append((graph.name, engine.optimize(graph).plan, feeds))
        subjects.append((f"{graph.name}@alt", alt, feeds))
    return subjects


class TestLowering:
    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    def test_one_transfer_hook_per_cross_device_edge(
        self, lowering_subjects, executor
    ):
        crossing = same_device = 0
        for name, plan, feeds in lowering_subjects:
            recorder = _TransferRecorder()
            if executor == "inline":
                DispatchKernel(plan, fault_injector=recorder).run(feeds)
            else:
                ThreadedExecutor(plan, fault_injector=recorder).run(feeds)
            expected = _cross_device_edges(plan)
            assert Counter(recorder.calls) == expected, name
            crossing += sum(expected.values())
            same_device += sum(
                1
                for task in plan.tasks
                for src in task.sources.values()
                if src.kind == "task" and plan.task(src.ref).device == task.device
            )
        assert crossing and same_device  # both kinds of edge were exercised

    def test_steps_follow_the_plan(self, lowering_subjects):
        def reads(consumer, producer):
            return any(
                src.kind == "task" and src.ref == producer.task_id
                for src in consumer.sources.values()
            )

        for name, plan, _ in lowering_subjects:
            steps = DispatchKernel(plan).steps
            assert [s.task for s in steps] == plan.tasks, name
            for step in steps:
                producers = [s for s in steps if reads(step.task, s.task)]
                assert step.n_producers == len(producers), name
                assert step.consumers == tuple(
                    j for j, s in enumerate(steps) if reads(s.task, step.task)
                ), name


class TestWorkerStrategies:
    def test_inline_and_threaded_agree_bitwise(self, plan_and_graph):
        plan, graph = plan_and_graph
        feeds = make_inputs(graph)
        inline = DispatchKernel(plan).run(feeds)
        threaded = ThreadedExecutor(plan).run(feeds)
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

        ThreadedExecutor(plan, middleware=[recorder]).run(make_inputs(graph))
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

        DispatchKernel(plan, middleware=[recorder]).run(make_inputs(graph))
        assert names == {threading.current_thread().name}

    def test_inline_propagates_raw_exceptions(self, plan_and_graph):
        plan, graph = plan_and_graph

        def boom(args):
            raise ValueError("not a runtime error")

        bad = _patch_first_kernel(plan, boom)
        with pytest.raises(ValueError, match="not a runtime error"):
            DispatchKernel(bad).run(make_inputs(graph))

    def test_failed_threaded_run_joins_its_workers(self, plan_and_graph):
        plan, graph = plan_and_graph

        def boom(args):
            raise ValueError("kernel exploded")

        before = set(threading.enumerate())
        with pytest.raises(ExecutionError, match="kernel exploded"):
            ThreadedExecutor(_patch_first_kernel(plan, boom)).run(
                make_inputs(graph)
            )
        # The shutdown block ran: no device worker outlives the dispatch.
        assert not [
            t
            for t in set(threading.enumerate()) - before
            if t.name.startswith("duet-worker-")
        ]

    def test_missing_external_input(self, plan_and_graph):
        plan, _ = plan_and_graph
        with pytest.raises(ExecutionError, match="missing external input"):
            DispatchKernel(plan).run({})

    def test_arena_stops_allocating_and_outputs_match(self, plan_and_graph):
        plan, graph = plan_and_graph
        feeds = make_inputs(graph)
        arena = TensorArena(plan)
        kernel = DispatchKernel(plan, arena=arena)
        first = [np.copy(o) for o in kernel.run(feeds).outputs]
        allocations = arena.allocations
        second = kernel.run(feeds)
        assert arena.allocations == allocations
        for a, b in zip(first, second.outputs):
            np.testing.assert_array_equal(a, b)
        plain = DispatchKernel(plan).run(feeds)
        for a, b in zip(first, plain.outputs):
            np.testing.assert_array_equal(a, b)


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=0.01, backoff_multiplier=2.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff_s(1, rng) == pytest.approx(0.01)
        assert policy.backoff_s(3, rng) == pytest.approx(0.04)

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.01, jitter=0.5)
        rng = np.random.default_rng(0)
        for attempt in range(1, 5):
            delay = policy.backoff_s(attempt, rng)
            nominal = 0.01 * 2.0 ** (attempt - 1)
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_validation(self):
        with pytest.raises(ExecutionError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExecutionError, match="jitter"):
            RetryPolicy(jitter=1.5)
        # Each would hand time.sleep a negative or NaN delay on the first
        # retry, raising inside a serving worker instead of here.
        for name, value in (
            ("backoff_base_s", -1e-3),
            ("backoff_base_s", float("nan")),
            ("backoff_base_s", float("inf")),
            ("backoff_multiplier", -2.0),
            ("backoff_multiplier", float("nan")),
        ):
            with pytest.raises(ExecutionError, match=name):
                RetryPolicy(**{name: value})
        policy = RetryPolicy(backoff_base_s=0.0, backoff_multiplier=0.0)
        assert policy.backoff_s(2, np.random.default_rng(0)) == 0.0


class TestRetryMiddleware:
    def _retry(self, max_attempts=3, seed=0, backoff_base_s=1e-5):
        events, counters = [], dict.fromkeys(("faults", "retries", "giveups"), 0)
        mw = RetryMiddleware(
            RetryPolicy(max_attempts=max_attempts, backoff_base_s=backoff_base_s),
            events,
            counters,
            {"cpu": np.random.default_rng(seed)},
            clock=lambda: 0.0,
        )
        return mw, events, counters

    @staticmethod
    def _flaky(failures, error=None):
        calls = []

        def attempt(ctx):
            calls.append(ctx.attempt)
            if len(calls) <= failures:
                raise error or TransientKernelError("flaky")

        return attempt, calls

    def _ctx(self):
        return TaskContext(task=SimpleNamespace(task_id="t0"), device="cpu")

    def test_transient_faults_retried_to_success(self):
        mw, events, counters = self._retry()
        attempt, calls = self._flaky(2)
        mw(self._ctx(), attempt)
        assert calls == [1, 2, 3]
        assert counters == {"faults": 2, "retries": 2, "giveups": 0}
        assert [e.kind for e in events] == [
            "fault", "backoff", "retry", "fault", "backoff", "retry",
        ]
        assert (events[0].task_id, events[0].attempt) == ("t0", 1)

    def test_gives_up_after_max_attempts(self):
        mw, events, counters = self._retry(max_attempts=2)
        attempt, calls = self._flaky(99)
        with pytest.raises(Exception) as excinfo:
            mw(self._ctx(), attempt)
        assert isinstance(excinfo.value.__cause__, TransientKernelError)
        assert calls == [1, 2]
        assert counters["giveups"] == 1
        assert events[-1].kind == "giveup"

    def test_device_loss_is_not_retried(self):
        mw, events, counters = self._retry()
        attempt, calls = self._flaky(1, DeviceLostError("cpu"))
        with pytest.raises(DeviceLostError):
            mw(self._ctx(), attempt)
        assert calls == [1]
        assert events == [] and counters["faults"] == 0

    def test_backoff_jitter_replays_under_a_seed(self):
        def backoffs(seed):
            mw, events, _ = self._retry(seed=seed, backoff_base_s=1e-3)
            mw(self._ctx(), self._flaky(2)[0])
            return [e.detail for e in events if e.kind == "backoff"]

        assert backoffs(7) == backoffs(7)
        assert backoffs(7) != backoffs(8)


class TestTracingMiddleware:
    def test_success_emits_start_finish_pairs(self, plan_and_graph):
        plan, graph = plan_and_graph
        events = []
        DispatchKernel(
            plan,
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
