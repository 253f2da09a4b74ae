"""Regression tests: vectorized sampling and the timing-only fast path."""

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.errors import ExecutionError
from repro.models import build_model
from repro.runtime import (
    measure_latency,
    measure_latency_batch,
    simulate,
    simulate_batch,
)


@pytest.fixture
def noisy_plan(noisy_machine):
    engine = DuetEngine(machine=noisy_machine)
    return engine.optimize(build_model("wide_deep", tiny=True)).plan


class TestSimulateBatch:
    def test_n1_bit_identical_to_scalar_sampled(self, noisy_plan, noisy_machine):
        for seed in range(5):
            scalar = simulate(
                noisy_plan, noisy_machine, rng=np.random.default_rng(seed)
            ).latency
            batch = simulate_batch(
                noisy_plan, noisy_machine, np.random.default_rng(seed), 1
            )
            assert batch.shape == (1,)
            assert batch[0] == scalar

    def test_seeded_determinism(self, noisy_plan, noisy_machine):
        a = simulate_batch(noisy_plan, noisy_machine, np.random.default_rng(7), 100)
        b = simulate_batch(noisy_plan, noisy_machine, np.random.default_rng(7), 100)
        np.testing.assert_array_equal(a, b)

    def test_noise_free_machine_reproduces_mean(self, machine):
        engine = DuetEngine(machine=machine)
        opt = engine.optimize(build_model("siamese", tiny=True))
        mean = simulate(opt.plan, machine).latency
        batch = simulate_batch(opt.plan, machine, np.random.default_rng(0), 8)
        assert np.all(batch == mean)

    def test_distribution_matches_sequential_scalar(self, noisy_plan, noisy_machine):
        """Batched percentiles agree with the old one-run-at-a-time loop."""
        seq = measure_latency(
            lambda rng: simulate(noisy_plan, noisy_machine, rng=rng).latency,
            n_runs=2000,
            warmup=0,
            seed=1,
        )
        bat = measure_latency_batch(
            lambda rng, n: simulate_batch(noisy_plan, noisy_machine, rng, n),
            n_runs=2000,
            warmup=0,
            seed=1,
        )
        assert bat.mean == pytest.approx(seq.mean, rel=0.02)
        assert bat.p50 == pytest.approx(seq.p50, rel=0.02)
        assert bat.p99 == pytest.approx(seq.p99, rel=0.05)

    def test_invalid_n_runs_raises(self, noisy_plan, noisy_machine):
        with pytest.raises(ExecutionError, match="n_runs"):
            simulate_batch(noisy_plan, noisy_machine, np.random.default_rng(0), 0)


class TestTimingOnlyFastPath:
    def test_latency_bit_identical_to_full_records(self, machine):
        # Every replay carries full records; the per-kernel view is derived
        # from the durations the walk accumulated, so it lands bit-exactly
        # on the task finish that priced the latency.
        engine = DuetEngine(machine=machine)
        opt = engine.optimize(build_model("mtdnn", tiny=True))
        result = simulate(opt.plan, machine)
        assert any(rec.kernels for rec in result.tasks)
        for rec in result.tasks:
            if rec.kernels:
                assert rec.kernels[-1].finish == rec.finish
        assert result.latency >= max(rec.finish for rec in result.tasks)

    def test_precomputed_kernel_times_bit_identical(self, machine):
        engine = DuetEngine(machine=machine)
        opt = engine.optimize(build_model("wide_deep", tiny=True))
        times = {
            t.task_id: [
                machine.device(t.device).kernel_time(k.cost)
                for k in t.module.kernels
            ]
            for t in opt.plan.tasks
        }
        full = simulate(opt.plan, machine)
        fast = simulate(opt.plan, machine, kernel_times=times)
        assert fast.latency == full.latency
        assert fast.tasks == full.tasks

    def test_numeric_execution_unaffected(self, machine):
        from repro.ir import make_inputs, run_graph

        graph = build_model("siamese", tiny=True)
        engine = DuetEngine(machine=machine)
        opt = engine.optimize(graph)
        feeds = make_inputs(graph)
        result = simulate(opt.plan, machine, inputs=feeds)
        for got, want in zip(result.outputs, run_graph(graph, feeds)):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


class TestMeasureLatencyBatch:
    def test_warmup_excluded(self):
        def sampler(rng, n):
            return np.arange(n, dtype=float)

        stats = measure_latency_batch(sampler, n_runs=50, warmup=10)
        assert stats.n_samples == 50
        assert stats.mean == pytest.approx(np.arange(10, 60).mean())

    def test_bad_shape_raises(self):
        with pytest.raises(ExecutionError, match="shape"):
            measure_latency_batch(lambda rng, n: np.zeros((n, 2)), n_runs=10)

    def test_deterministic_given_seed(self):
        def sampler(rng, n):
            return rng.random(n)

        a = measure_latency_batch(sampler, n_runs=100, warmup=0, seed=3)
        b = measure_latency_batch(sampler, n_runs=100, warmup=0, seed=3)
        c = measure_latency_batch(sampler, n_runs=100, warmup=0, seed=4)
        assert a.mean == b.mean
        assert a.mean != c.mean
