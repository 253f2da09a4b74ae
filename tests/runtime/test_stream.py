"""Tests for request-stream simulation."""

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.errors import ExecutionError
from repro.models import build_model
from repro.runtime import simulate, simulate_stream, single_device_plan


@pytest.fixture(scope="module")
def wd_plans():
    from repro.devices import default_machine

    machine = default_machine(noisy=False)
    engine = DuetEngine(machine=machine)
    graph = build_model("wide_deep")
    opt = engine.optimize(graph)
    gpu_module = engine.compiler.compile_gpu(graph)
    return machine, opt.plan, single_device_plan(gpu_module, "gpu")


class TestStream:
    def test_single_request_matches_overlap_simulate(self, wd_plans):
        # The stream replay uses the overlapped (ready-ordered) link
        # discipline, so one request prices exactly as simulate(overlap=True).
        machine, duet_plan, _ = wd_plans
        stream = simulate_stream(duet_plan, machine, n_requests=1)
        single = simulate(duet_plan, machine, overlap=True)
        assert stream.latencies[0] == single.latency
        assert stream.makespan == single.latency

    def test_sparse_arrivals_have_unqueued_latency(self, wd_plans):
        machine, duet_plan, _ = wd_plans
        single = simulate(duet_plan, machine, overlap=True).latency
        stream = simulate_stream(
            duet_plan, machine, n_requests=5, interarrival_s=single * 3
        )
        for lat in stream.latencies:
            assert lat == pytest.approx(single, rel=1e-6)

    def test_burst_latencies_grow_with_queueing(self, wd_plans):
        machine, duet_plan, _ = wd_plans
        stream = simulate_stream(duet_plan, machine, n_requests=10)
        assert stream.latencies[-1] > stream.latencies[0]

    def test_duet_throughput_beats_single_gpu(self, wd_plans):
        machine, duet_plan, gpu_plan = wd_plans
        duet = simulate_stream(duet_plan, machine, n_requests=50)
        gpu = simulate_stream(gpu_plan, machine, n_requests=50)
        assert duet.throughput > gpu.throughput * 1.5

    def test_throughput_bounded_by_bottleneck_device(self, wd_plans):
        machine, duet_plan, _ = wd_plans
        stream = simulate_stream(duet_plan, machine, n_requests=100)
        # Per-request busy time of the most loaded device bounds throughput.
        busy = {"cpu": 0.0, "gpu": 0.0}
        for task in duet_plan.tasks:
            device = machine.device(task.device)
            busy[task.device] += sum(
                device.kernel_time(k.cost) for k in task.module.kernels
            )
        bottleneck = max(busy.values())
        assert stream.throughput <= 1.0 / bottleneck * 1.001

    def test_zero_requests_rejected(self, wd_plans):
        machine, duet_plan, _ = wd_plans
        with pytest.raises(ExecutionError):
            simulate_stream(duet_plan, machine, n_requests=0)

    def test_noisy_stream_reproducible(self, wd_plans):
        from repro.devices import default_machine

        noisy = default_machine(noisy=True)
        _, duet_plan, _ = wd_plans
        a = simulate_stream(
            duet_plan, noisy, n_requests=20, rng=np.random.default_rng(3)
        )
        b = simulate_stream(
            duet_plan, noisy, n_requests=20, rng=np.random.default_rng(3)
        )
        assert a.latencies == b.latencies
