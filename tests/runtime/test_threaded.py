"""Tests for the real-concurrency threaded executor."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import CompilerAwareProfiler, DuetEngine, partition_graph
from repro.core.placement import build_hetero_plan
from repro.core.schedulers.round_robin import round_robin_placement
from repro.devices import make_mesh
from repro.errors import DeviceLostError, ExecutionError, TransientKernelError
from repro.ir import make_inputs, run_graph
from repro.models import build_model
from repro.runtime.faults import (
    DeviceLoss,
    FaultInjector,
    FaultPlan,
    KernelFault,
)
from repro.runtime.core import DispatchKernel
from repro.runtime.plan import HeteroPlan
from repro.runtime.threaded import ThreadedExecutor


@pytest.fixture(params=["wide_deep", "siamese", "mtdnn"])
def plan_and_graph(request, machine):
    graph = build_model(request.param, tiny=True)
    engine = DuetEngine(machine=machine)
    opt = engine.optimize(graph)
    return opt.plan, graph


def _clone_root_task(plan, task_id, device, first_kernel_fn):
    """A copy of the plan's first (dependency-free) task with a new id,
    device, and replacement behavior for its first kernel."""
    root = plan.tasks[0]
    assert all(s.kind == "external" for s in root.sources.values())
    k0 = root.module.kernels[0]
    patched = dataclasses.replace(k0, fn=first_kernel_fn)
    module = dataclasses.replace(
        root.module, kernels=[patched] + list(root.module.kernels[1:])
    )
    return dataclasses.replace(
        root, task_id=task_id, device=device, module=module
    )


class TestThreadedExecutor:
    def test_outputs_match_interpreter(self, plan_and_graph):
        plan, graph = plan_and_graph
        feeds = make_inputs(graph)
        result = ThreadedExecutor(plan).run(feeds)
        ref = run_graph(graph, feeds)
        assert len(result.outputs) == len(ref)
        for got, want in zip(result.outputs, ref):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_tasks_run_on_assigned_worker(self, plan_and_graph):
        plan, graph = plan_and_graph
        result = ThreadedExecutor(plan).run(make_inputs(graph))
        for task in plan.tasks:
            assert result.task_worker[task.task_id] == task.device

    def test_completion_order_respects_dependencies(self, plan_and_graph):
        plan, graph = plan_and_graph
        result = ThreadedExecutor(plan).run(make_inputs(graph))
        position = {tid: i for i, tid in enumerate(result.task_order)}
        for task in plan.tasks:
            for src in task.sources.values():
                if src.kind == "task":
                    assert position[src.ref] < position[task.task_id]

    def test_all_tasks_complete(self, plan_and_graph):
        plan, graph = plan_and_graph
        result = ThreadedExecutor(plan).run(make_inputs(graph))
        assert len(result.task_order) == len(plan.tasks)
        assert result.wall_time_s > 0

    def test_missing_input_propagates(self, plan_and_graph):
        plan, _ = plan_and_graph
        with pytest.raises(ExecutionError):
            ThreadedExecutor(plan).run({})

    def test_failed_task_drains_queued_work(self, machine):
        """On error, already-queued tasks are drained, not executed."""
        graph = build_model("siamese", tiny=True)
        plan = DuetEngine(machine=machine).optimize(graph).plan
        real_fn = plan.tasks[0].module.kernels[0].fn
        ran = []

        def slow(args):
            time.sleep(0.5)
            return real_fn(args)

        def boom(args):
            raise ValueError("kernel exploded")

        def recorder(args):
            ran.append("behind")
            return real_fn(args)

        # gpu queue: [sleeper, behind]; cpu queue: [failer].  The failure
        # lands while the gpu worker sleeps, so "behind" must be drained
        # before that worker can reach it.
        crafted = HeteroPlan(
            tasks=[
                _clone_root_task(plan, "sleeper", "gpu", slow),
                _clone_root_task(plan, "failer", "cpu", boom),
                _clone_root_task(plan, "behind", "gpu", recorder),
            ],
            outputs=[("sleeper", 0)],
        )
        with pytest.raises(ExecutionError, match="kernel exploded"):
            ThreadedExecutor(crafted).run(make_inputs(graph))
        assert ran == []

    def test_stuck_worker_named_in_error(self, machine):
        """A wedged worker is reported instead of joined forever."""
        graph = build_model("siamese", tiny=True)
        plan = DuetEngine(machine=machine).optimize(graph).plan
        real_fn = plan.tasks[0].module.kernels[0].fn

        def wedge(args):
            time.sleep(1.0)
            return real_fn(args)

        def boom(args):
            # Give the gpu worker time to start (and get stuck inside) its
            # task before the failure cuts the run short.
            time.sleep(0.25)
            raise ValueError("kernel exploded")

        crafted = HeteroPlan(
            tasks=[
                _clone_root_task(plan, "wedged", "gpu", wedge),
                _clone_root_task(plan, "failer", "cpu", boom),
            ],
            outputs=[("wedged", 0)],
        )
        with pytest.raises(ExecutionError, match=r"gpu.*wedged") as excinfo:
            ThreadedExecutor(crafted, join_timeout=0.05).run(make_inputs(graph))
        assert "kernel exploded" in str(excinfo.value)

    def test_multiple_worker_failures_all_surfaced(self, machine):
        """Every worker failure lands in the message, not just the first."""
        graph = build_model("siamese", tiny=True)
        plan = DuetEngine(machine=machine).optimize(graph).plan

        gpu_started = threading.Event()

        def boom_cpu(args):
            # Hold the cpu failure until the gpu task is provably in
            # flight, otherwise the abort may drain it before it starts
            # and there is only one failure to surface.
            gpu_started.wait(timeout=5.0)
            raise ValueError("boom-cpu")

        def boom_gpu_late(args):
            # Already running when the cpu failure aborts the run; its own
            # failure must still be recorded, not silently dropped.
            gpu_started.set()
            time.sleep(0.05)
            raise ValueError("boom-gpu")

        crafted = HeteroPlan(
            tasks=[
                _clone_root_task(plan, "late_failer", "gpu", boom_gpu_late),
                _clone_root_task(plan, "fast_failer", "cpu", boom_cpu),
            ],
            outputs=[("late_failer", 0)],
        )
        with pytest.raises(ExecutionError) as excinfo:
            ThreadedExecutor(crafted).run(make_inputs(graph))
        message = str(excinfo.value)
        assert "boom-cpu" in message
        assert "boom-gpu" in message
        assert "additional worker failure" in message

    def test_repeated_runs_deterministic_outputs(self, machine):
        graph = build_model("siamese", tiny=True)
        partition = partition_graph(graph)
        profiles = CompilerAwareProfiler(machine=machine).profile_partition(
            partition
        )
        placement = {sg.id: ("gpu" if i % 2 else "cpu")
                     for i, sg in enumerate(partition.subgraphs)}
        plan = build_hetero_plan(graph, partition, profiles, placement)
        feeds = make_inputs(graph)
        a = ThreadedExecutor(plan).run(feeds)
        b = ThreadedExecutor(plan).run(feeds)
        for x, y in zip(a.outputs, b.outputs):
            np.testing.assert_array_equal(x, y)


class TestThreadedStress:
    def test_more_workers_than_cores_under_fast_switching(self):
        """Four device workers on a 3-GPU mesh plan, the interpreter
        switching threads every microsecond: a lost update to the shared
        value slots or producer counts hangs a run or changes its
        outputs."""
        mesh = make_mesh(num_gpus=3, noisy=False)
        devices = mesh.device_names
        graph = build_model("resnet", tiny=True)
        partition = partition_graph(graph)
        profiles = CompilerAwareProfiler(machine=mesh).profile_partition(
            partition
        )
        plan = build_hetero_plan(
            graph,
            partition,
            profiles,
            round_robin_placement(partition, devices),
            devices=devices,
        )
        feeds = make_inputs(graph)
        want = DispatchKernel(plan).run(feeds).outputs
        executor = ThreadedExecutor(plan)
        assert len(executor.devices) == 4
        results = []

        def drive():
            for _ in range(10):
                results.append(executor.run(feeds))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            driver = threading.Thread(target=drive, daemon=True)
            driver.start()
            driver.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not driver.is_alive(), "a threaded run hung"
        assert len(results) == 10
        task_ids = sorted(t.task_id for t in plan.tasks)
        for result in results:
            for got, expected in zip(result.outputs, want):
                np.testing.assert_array_equal(got, expected)
            assert sorted(result.task_order) == task_ids


class TestThreadedFaultInjection:
    """Failure paths driven by the deterministic injector (no recovery
    here — the plain executor aborts exactly like on a real fault)."""

    def test_mid_graph_kernel_fault_aborts_run(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        mid = plan.tasks[1].task_id
        injector = FaultInjector(
            FaultPlan(kernel_faults=(KernelFault(mid, fail_attempts=1),))
        )
        with pytest.raises(ExecutionError, match="injected transient"):
            ThreadedExecutor(plan, fault_injector=injector).run(feeds)
        assert isinstance(injector, FaultInjector)

    def test_mid_graph_fault_is_deterministic(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        mid = plan.tasks[1].task_id
        for _ in range(3):
            injector = FaultInjector(
                FaultPlan(kernel_faults=(KernelFault(mid, fail_attempts=1),))
            )
            with pytest.raises(ExecutionError) as excinfo:
                ThreadedExecutor(plan, fault_injector=injector).run(feeds)
            assert isinstance(excinfo.value.__cause__, TransientKernelError)
            assert mid in str(excinfo.value)

    def test_both_device_fault_surfaces_both(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        roots = [t for t in plan.tasks
                 if all(s.kind == "external" for s in t.sources.values())]
        by_dev = {t.device: t.task_id for t in roots}
        assert set(by_dev) == {"cpu", "gpu"}, "need a root on each device"
        injector = FaultInjector(
            FaultPlan(
                kernel_faults=(
                    KernelFault(by_dev["cpu"], fail_attempts=1),
                    KernelFault(by_dev["gpu"], fail_attempts=1),
                )
            )
        )
        with pytest.raises(ExecutionError) as excinfo:
            ThreadedExecutor(plan, fault_injector=injector).run(feeds)
        # Both roots start immediately on their own workers, so both
        # injected faults fire and both appear in the message.
        message = str(excinfo.value)
        assert by_dev["cpu"] in message or by_dev["gpu"] in message

    def test_injected_fault_drains_queued_work(self, machine):
        """An injected failure must drain queued tasks like a real one."""
        graph = build_model("siamese", tiny=True)
        plan = DuetEngine(machine=machine).optimize(graph).plan
        real_fn = plan.tasks[0].module.kernels[0].fn
        ran = []

        def slow(args):
            time.sleep(0.5)
            return real_fn(args)

        def recorder(args):
            ran.append("behind")
            return real_fn(args)

        crafted = HeteroPlan(
            tasks=[
                _clone_root_task(plan, "sleeper", "gpu", slow),
                _clone_root_task(plan, "failer", "cpu", real_fn),
                _clone_root_task(plan, "behind", "gpu", recorder),
            ],
            outputs=[("sleeper", 0)],
        )
        injector = FaultInjector(
            FaultPlan(kernel_faults=(KernelFault("failer", fail_attempts=1),))
        )
        with pytest.raises(ExecutionError, match="injected transient"):
            ThreadedExecutor(crafted, fault_injector=injector).run(
                make_inputs(graph)
            )
        assert ran == []

    def test_device_loss_aborts_plain_executor(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        gpu_tasks = [t.task_id for t in plan.tasks if t.device == "gpu"]
        injector = FaultInjector(
            FaultPlan(device_losses=(DeviceLoss("gpu", at_task=gpu_tasks[0]),))
        )
        with pytest.raises(ExecutionError, match="was lost"):
            ThreadedExecutor(plan, fault_injector=injector).run(feeds)

    def test_mid_run_device_loss_propagates_loss(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        gpu_tasks = [t.task_id for t in plan.tasks if t.device == "gpu"]
        assert len(gpu_tasks) >= 2
        # The GPU dies after its first task has committed: without a
        # recovery layer the run aborts with the loss as its cause.
        injector = FaultInjector(
            FaultPlan(device_losses=(DeviceLoss("gpu", at_task=gpu_tasks[1]),))
        )
        with pytest.raises(ExecutionError, match="was lost") as excinfo:
            ThreadedExecutor(plan, fault_injector=injector).run(feeds)
        cause = excinfo.value.__cause__
        assert isinstance(cause, DeviceLostError)
        assert cause.device == "gpu"
        assert injector.task_attempts(gpu_tasks[0]) == 1
