"""Tests for plan memory accounting and the planned activation pool."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.errors import ExecutionError
from repro.ir import make_inputs
from repro.ir.interpreter import run_graph
from repro.models import MODEL_NAMES, build_model
from repro.runtime.core import DispatchKernel
from repro.runtime.memory import (
    ALIGN,
    TensorArena,
    live_peak,
    live_ranges,
    memory_report,
)
from repro.testing import generate_cases


@pytest.fixture(scope="module")
def wd_opt():
    from repro.devices import default_machine

    engine = DuetEngine(machine=default_machine(noisy=False))
    return engine.optimize(build_model("wide_deep"))


class TestMemoryReport:
    def test_params_split_matches_model(self, wd_opt):
        report = memory_report(wd_opt.plan)
        total_params = wd_opt.graph.num_params() * 4  # float32
        assert report.cpu.param_bytes + report.gpu.param_bytes == pytest.approx(
            total_params
        )

    def test_task_counts_match_placement(self, wd_opt):
        report = memory_report(wd_opt.plan)
        cpu_tasks = sum(1 for d in wd_opt.placement.values() if d == "cpu")
        assert report.cpu.tasks == cpu_tasks
        assert report.gpu.tasks == len(wd_opt.placement) - cpu_tasks

    def test_gpu_holds_the_cnn_weights(self, wd_opt):
        # The ResNet branch dominates parameters and lives on the GPU.
        report = memory_report(wd_opt.plan)
        assert report.gpu.param_bytes > report.cpu.param_bytes

    def test_peaks_positive_when_used(self, wd_opt):
        report = memory_report(wd_opt.plan)
        for dev in (report.cpu, report.gpu):
            if dev.tasks:
                assert dev.peak_activation_bytes > 0
                assert dev.total_bytes >= dev.param_bytes

    def test_fallback_plan_is_single_device(self, machine):
        engine = DuetEngine(machine=machine)
        opt = engine.optimize(build_model("resnet"))
        report = memory_report(opt.plan)
        assert report.cpu.tasks == 0
        assert report.gpu.tasks == 1
        assert report.device("gpu").param_bytes == pytest.approx(
            opt.graph.num_params() * 4
        )


# ----------------------------------------------------------------------
# The liveness-planned pool


def _zoo_plans(tiny):
    from repro.devices import default_machine

    engine = DuetEngine(machine=default_machine(noisy=False))
    return {
        f"{name}{'-tiny' if tiny else ''}": engine.optimize(build_model(name, tiny=tiny))
        for name in MODEL_NAMES
    }


@pytest.fixture(scope="module")
def zoo_opts():
    """Every zoo model's optimization, at test and at paper scale."""
    return {**_zoo_plans(tiny=True), **_zoo_plans(tiny=False)}


@pytest.fixture(scope="module")
def fuzz_opts():
    """Optimizations of the first 50 graphs of fuzz campaign 0."""
    from repro.devices import default_machine

    engine = DuetEngine(machine=default_machine(noisy=False))
    return {
        case.graph.name: engine.optimize(case.graph)
        for case in generate_cases(0, 50)
    }


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and got.tobytes() == want.tobytes()
    )


class _ScribblingArena(TensorArena):
    """A pool that, before each kernel runs, fills every byte no earlier
    slot still live at that step covers with 0xFF (NaN for floats): a
    read outside a slot's live range then shows in the outputs."""

    def __init__(self, plan):
        super().__init__(plan)
        self._first_step = {}
        step = 0
        for task in plan.tasks:
            self._first_step[task.task_id] = step
            step += len(task.module.kernels)

    def task_slots(self, task_id):
        step = self._first_step[task_id]
        for view in super().task_slots(task_id):
            keep = np.zeros(self.nbytes, dtype=bool)
            for s in self.slots:
                if s.first < step <= s.last:
                    keep[s.offset : s.offset + s.nbytes] = True
            self._pool[~keep] = 0xFF
            yield view
            step += 1


class TestActivationPool:
    def test_overlapping_live_ranges_never_share_a_byte(self, zoo_opts, fuzz_opts):
        for name, opt in {**zoo_opts, **fuzz_opts}.items():
            slots = TensorArena(opt.plan).slots
            for i, a in enumerate(slots):
                for b in slots[i + 1 :]:
                    if a.first <= b.last and b.first <= a.last:
                        assert (
                            a.offset + a.nbytes <= b.offset
                            or b.offset + b.nbytes <= a.offset
                        ), (name, a.key, b.key)

    def test_slot_views_are_contiguous_writable_and_aligned(
        self, zoo_opts, fuzz_opts
    ):
        for name, opt in {**zoo_opts, **fuzz_opts}.items():
            arena = TensorArena(opt.plan)
            for task in opt.plan.tasks:
                views = arena.task_slots(task.task_id)
                assert len(views) == len(task.module.kernels)
                for kernel, view in zip(task.module.kernels, views):
                    ty = task.module.graph.node(kernel.output_id).ty
                    assert view.shape == tuple(ty.shape), name
                    assert view.dtype == ty.dtype.to_numpy(), name
                    assert view.flags.c_contiguous and view.flags.writeable
                    assert view.ctypes.data % ALIGN == 0, (name, kernel.name)

    def test_pool_is_the_live_peak_up_to_alignment(self, zoo_opts, fuzz_opts):
        unplanned = planned = 0
        for name, opt in {**zoo_opts, **fuzz_opts}.items():
            arena = TensorArena(opt.plan)
            peak = live_peak(arena.slots)
            assert peak <= arena.nbytes <= peak + ALIGN * len(arena.slots), name
            if name in zoo_opts:
                spans = [replace(s, nbytes=s.span) for s in arena.slots]
                assert arena.nbytes == live_peak(spans), name
                unplanned += sum(s.nbytes for s in arena.slots)
                planned += arena.nbytes
        assert planned < unplanned / 3  # the zoo's pools share a lot

    def test_live_ranges_cover_every_read(self, zoo_opts, fuzz_opts):
        """Bytes outside every live slot are scribbled before each kernel,
        and the outputs are still the interpreter's, bit for bit."""
        for name, opt in {**zoo_opts, **fuzz_opts}.items():
            if not name.endswith("-tiny") and name in zoo_opts:
                continue  # paper scale: scribbling is quadratic in the pool
            feeds = make_inputs(opt.graph)
            want = run_graph(opt.graph, feeds)
            kernel = DispatchKernel(
                opt.plan, arena=_ScribblingArena(opt.plan)
            )
            with np.errstate(all="ignore"):
                got = kernel.run(feeds).outputs
            assert all(map(_same_bits, got, want)), name

    def test_a_retried_task_rereads_intact_feeds(self, zoo_opts):
        """A task output lives to the last kernel of its consumer, so a
        consumer whose last kernel fails mid-task re-reads its feeds
        intact on the retry, with everything else scribbled."""
        import dataclasses
        import time

        from repro.runtime.core import RetryMiddleware, RetryPolicy
        from repro.runtime.plan import HeteroPlan

        opt = zoo_opts["wide_deep-tiny"]
        plan = opt.plan
        task = next(
            t
            for t in plan.tasks
            if len(t.module.kernels) > 1
            and any(src.kind == "task" for src in t.sources.values())
        )
        last = task.module.kernels[-1]
        calls = []

        def flaky(args, _fn=last.fn):
            calls.append(1)
            if len(calls) == 1:
                raise ExecutionError("transient kernel fault")
            return _fn(args)

        module = dataclasses.replace(
            task.module,
            kernels=[*task.module.kernels[:-1], dataclasses.replace(
                last, fn=flaky, run_into=None
            )],
        )
        flaky_plan = HeteroPlan(
            tasks=[
                dataclasses.replace(t, module=module) if t is task else t
                for t in plan.tasks
            ],
            outputs=plan.outputs,
        )
        counters = {"faults": 0, "retries": 0, "giveups": 0}
        retry = RetryMiddleware(
            RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            events=[],
            counters=counters,
            rngs={t.device: np.random.default_rng(0) for t in plan.tasks},
            clock=time.perf_counter,
        )
        kernel = DispatchKernel(
            flaky_plan,
            middleware=[retry],
            arena=_ScribblingArena(flaky_plan),
        )
        feeds = make_inputs(opt.graph)
        got = kernel.run(feeds).outputs
        assert counters["retries"] == 1 and len(calls) == 2
        assert all(map(_same_bits, got, run_graph(opt.graph, feeds)))

    def test_plan_outputs_live_to_the_end(self, zoo_opts):
        for opt in zoo_opts.values():
            slots = live_ranges(opt.plan)
            end = sum(len(t.module.kernels) for t in opt.plan.tasks)
            by_key = {s.key: s for s in slots}
            for tid, idx in opt.plan.outputs:
                out_id = opt.plan.task(tid).module.output_ids[idx]
                if (tid, out_id) in by_key:
                    assert by_key[(tid, out_id)].last == end

    def test_zoo_results_fit_their_slots(self, zoo_opts):
        """Every kernel of every tiny zoo plan returns its declared type:
        a session allocates nothing past its pool."""
        for name, opt in zoo_opts.items():
            if not name.endswith("-tiny"):
                continue
            arena = TensorArena(opt.plan)
            kernel = DispatchKernel(opt.plan, arena=arena)
            kernel.run(make_inputs(opt.graph))
            assert arena.allocations == 1, name

    def test_misfit_result_is_a_private_copy(self, zoo_opts):
        arena = TensorArena(zoo_opts["wide_deep-tiny"].plan)
        slot = arena.task_slots(arena.slots[0].key[0])[0]
        same = np.full(slot.shape, 3, dtype=slot.dtype)
        assert arena.put(slot, same) is slot
        assert np.array_equal(slot, same)
        wider = same.astype(np.float64) + 0.25
        got = arena.put(slot, wider)
        assert got.dtype == np.float64 and np.array_equal(got, wider)
        assert got is not wider and not np.shares_memory(got, arena._pool)
        assert np.array_equal(slot, same)  # nothing cast into the slot
        assert arena.allocations == 2

    def test_arena_serves_only_its_plans_inline_dispatch(self, zoo_opts):
        plan = zoo_opts["wide_deep-tiny"].plan
        other = zoo_opts["siamese-tiny"].plan
        with pytest.raises(ExecutionError, match="planned for"):
            DispatchKernel(other, arena=TensorArena(plan))
