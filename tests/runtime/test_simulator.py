"""Tests for the discrete-event simulator's execution semantics."""

import numpy as np
import pytest

from repro.compiler import CPU_TARGET, GPU_TARGET, lower
from repro.ir import GraphBuilder, make_inputs, run_graph
from repro.runtime import (
    HeteroPlan,
    Source,
    TaskSpec,
    simulate,
    single_device_plan,
)


def _dense_graph(name="m", units=64, in_dim=64):
    b = GraphBuilder(name)
    x = b.input("x", (1, in_dim))
    w = b.const((units, in_dim))
    return b.build(b.op("relu", b.op("dense", x, w)))


def _task(graph, tid, device, sources):
    target = GPU_TARGET if device == "gpu" else CPU_TARGET
    return TaskSpec(
        task_id=tid, device=device, module=lower(graph, target), sources=sources
    )


def _ext(*names):
    return {n: Source(kind="external", ref=n) for n in names}


class TestSingleDevice:
    def test_cpu_latency_is_kernel_sum(self, machine):
        g = _dense_graph()
        mod = lower(g, CPU_TARGET)
        result = simulate(single_device_plan(mod, "cpu"), machine)
        cpu = machine.device("cpu")
        expected = sum(cpu.kernel_time(k.cost) for k in mod.kernels)
        assert result.latency == pytest.approx(expected)
        assert result.transfers == []

    def test_gpu_pays_io_transfers(self, machine):
        g = _dense_graph()
        mod = lower(g, GPU_TARGET)
        result = simulate(single_device_plan(mod, "gpu"), machine)
        gpu = machine.device("gpu")
        kernel_time = sum(gpu.kernel_time(k.cost) for k in mod.kernels)
        assert result.latency > kernel_time
        assert len(result.transfers) == 2  # input H2D + output D2H

    def test_kernel_records_contiguous(self, machine, tiny_model):
        mod = lower(tiny_model, CPU_TARGET)
        result = simulate(single_device_plan(mod, "cpu"), machine)
        record = result.tasks[0]
        kernels = record.kernels
        assert [k.name for k in kernels] == [k.name for k in mod.kernels]
        assert kernels[0].start == record.start
        for prev, cur in zip(kernels, kernels[1:]):
            assert cur.start == pytest.approx(prev.finish)
        assert kernels[-1].finish == pytest.approx(record.finish)


class TestConcurrency:
    def _two_branch_plan(self, devices):
        g1 = _dense_graph("m1")
        g2 = _dense_graph("m2")
        t1 = _task(g1, "t1", devices[0], _ext("x"))
        t2 = _task(g2, "t2", devices[1], _ext("x"))
        return HeteroPlan(tasks=[t1, t2], outputs=[("t1", 0), ("t2", 0)])

    def test_different_devices_overlap(self, machine):
        plan = self._two_branch_plan(("cpu", "gpu"))
        result = simulate(plan, machine)
        r1 = result.task_record("t1")
        r2 = result.task_record("t2")
        # both may start immediately (input transfer aside): t1 on cpu at 0.
        assert r1.start == 0.0
        assert r2.start < r1.finish or r1.start < r2.finish  # overlap exists

    def test_same_device_serializes(self, machine):
        plan = self._two_branch_plan(("cpu", "cpu"))
        result = simulate(plan, machine)
        r1 = result.task_record("t1")
        r2 = result.task_record("t2")
        assert r2.start >= r1.finish

    def test_split_overlaps_instead_of_serializing(self, machine):
        split = simulate(self._two_branch_plan(("cpu", "gpu")), machine)
        r1 = split.task_record("t1")
        r2 = split.task_record("t2")
        serial_bound = (
            r1.duration
            + r2.duration
            + sum(t.duration for t in split.transfers)
        )
        assert split.latency < serial_bound


class TestTransfers:
    def _chain_plan(self, dev1, dev2):
        g1 = _dense_graph("m1")
        t1 = _task(g1, "t1", dev1, _ext("x"))
        out_id = t1.module.output_ids[0]
        g2b = GraphBuilder("m2")
        h = g2b.input(out_id, (1, 64))
        w = g2b.const((8, 64))
        g2 = g2b.build(g2b.op("dense", h, w))
        t2 = _task(g2, "t2", dev2, {out_id: Source(kind="task", ref="t1")})
        return HeteroPlan(tasks=[t1, t2], outputs=[("t2", 0)])

    def test_same_device_chain_has_no_transfer(self, machine):
        result = simulate(self._chain_plan("cpu", "cpu"), machine)
        assert result.transfers == []

    def test_cross_device_chain_pays_transfer(self, machine):
        result = simulate(self._chain_plan("cpu", "gpu"), machine)
        # t1 output H2D + final output D2H
        assert len(result.transfers) == 2
        r1 = result.task_record("t1")
        r2 = result.task_record("t2")
        transfer = next(t for t in result.transfers if t.what.startswith("task:t1"))
        assert transfer.start >= r1.finish
        assert r2.start >= transfer.finish

    def test_transfer_cached_for_repeat_consumers(self, machine):
        g1 = _dense_graph("m1")
        t1 = _task(g1, "t1", "cpu", _ext("x"))
        out_id = t1.module.output_ids[0]

        def consumer(name):
            bb = GraphBuilder(name)
            h = bb.input(out_id, (1, 64))
            w = bb.const((8, 64))
            return bb.build(bb.op("dense", h, w))

        t2 = _task(consumer("m2"), "t2", "gpu", {out_id: Source(kind="task", ref="t1")})
        t3 = _task(consumer("m3"), "t3", "gpu", {out_id: Source(kind="task", ref="t1")})
        plan = HeteroPlan(tasks=[t1, t2, t3], outputs=[("t2", 0), ("t3", 0)])
        result = simulate(plan, machine)
        h2d = [t for t in result.transfers if t.what.startswith("task:t1")]
        assert len(h2d) == 1  # transferred once, reused by t3

    def test_external_input_to_gpu_transferred_once(self, machine):
        g1 = _dense_graph("m1")
        g2 = _dense_graph("m2")
        t1 = _task(g1, "t1", "gpu", _ext("x"))
        t2 = _task(g2, "t2", "gpu", _ext("x"))
        plan = HeteroPlan(tasks=[t1, t2], outputs=[("t1", 0), ("t2", 0)])
        result = simulate(plan, machine)
        ext = [t for t in result.transfers if t.what == "external:x"]
        assert len(ext) == 1

    def test_link_serializes_transfers(self, machine):
        # Two big tensors crossing at once: second waits for the first.
        big = 1 << 20
        bb = GraphBuilder("big")
        x = bb.input("x", (1, big // 4))
        g = bb.build(bb.op("relu", x))
        t1 = _task(g, "t1", "gpu", _ext("x"))
        bb2 = GraphBuilder("big2")
        y = bb2.input("y", (1, big // 4))
        g2 = bb2.build(bb2.op("relu", y))
        t2 = _task(g2, "t2", "gpu", {"y": Source(kind="external", ref="y")})
        plan = HeteroPlan(tasks=[t1, t2], outputs=[("t1", 0), ("t2", 0)])
        result = simulate(plan, machine)
        h2d = sorted(
            (t for t in result.transfers if t.what.startswith("external")),
            key=lambda t: t.start,
        )
        assert h2d[1].start >= h2d[0].finish


class TestNumericExecution:
    def test_outputs_match_interpreter(self, machine, diamond_graph):
        mod = lower(diamond_graph, CPU_TARGET)
        feeds = make_inputs(diamond_graph)
        result = simulate(single_device_plan(mod, "cpu"), machine, inputs=feeds)
        ref = run_graph(diamond_graph, feeds)
        np.testing.assert_allclose(result.outputs[0], ref[0], rtol=1e-5)

    def test_cross_device_values_flow(self, machine):
        g1 = _dense_graph("m1")
        t1 = _task(g1, "t1", "cpu", _ext("x"))
        out_id = t1.module.output_ids[0]
        bb = GraphBuilder("m2")
        h = bb.input(out_id, (1, 64))
        g2 = bb.build(bb.op("tanh", h))
        t2 = _task(g2, "t2", "gpu", {out_id: Source(kind="task", ref="t1")})
        plan = HeteroPlan(tasks=[t1, t2], outputs=[("t2", 0)])
        feeds = {"x": np.random.default_rng(0).standard_normal((1, 64)).astype(np.float32)}
        result = simulate(plan, machine, inputs=feeds)
        want = np.tanh(t1.module.run(feeds)[0])
        np.testing.assert_allclose(result.outputs[0], want, rtol=1e-5)

    def test_no_inputs_no_outputs(self, machine, diamond_graph):
        mod = lower(diamond_graph, CPU_TARGET)
        result = simulate(single_device_plan(mod, "cpu"), machine)
        assert result.outputs is None


class TestNoiseMode:
    def test_sampled_latency_varies(self, noisy_machine, diamond_graph):
        mod = lower(diamond_graph, CPU_TARGET)
        rng = np.random.default_rng(0)
        xs = {
            simulate(single_device_plan(mod, "cpu"), noisy_machine, rng=rng).latency
            for _ in range(10)
        }
        assert len(xs) > 1

    def test_mean_mode_deterministic(self, machine, diamond_graph):
        mod = lower(diamond_graph, CPU_TARGET)
        a = simulate(single_device_plan(mod, "cpu"), machine).latency
        b = simulate(single_device_plan(mod, "cpu"), machine).latency
        assert a == b
