"""Dynamic batcher properties: exactness, linger deadlines, accounting.

Three layers, matching the batcher's separable concerns:

* :func:`collect_batch` window mechanics against a *scripted* queue and
  fake clock — the linger-deadline property is checked in simulated
  time, with no real sleeping and no thread scheduling noise;
* :func:`analyze_stack_safety` verdicts on hand-built plans;
* end-to-end property runs through the real threaded frontend: for
  random (max_batch, linger, arrival-order) configurations, batched
  outputs are bit-identical to unbatched/solo outputs and the batch-size
  histogram accounts for every request exactly once;
* where a window opens at all: only on a slot holding a stacked kernel,
  so an unstackable lane dispatches each request as it is dequeued, and
  the per-request re-run of a batch happens only after a stacked run
  raised.
"""

import queue
import time
from collections import Counter

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.errors import ExecutionError
from repro.ir import GraphBuilder, make_inputs
from repro.models import build_model
from repro.runtime.core import DispatchKernel, InlineWorkers
from repro.runtime.faults import FaultInjector, FaultPlan, KernelFault
from repro.runtime.session import EngineSession
from repro.serving import (
    BatchConfig,
    ServingConfig,
    analyze_stack_safety,
    collect_batch,
    run_stacked,
)
from repro.testing import (
    GeneratorConfig,
    case_rng,
    elementwise_chain,
    generate_graph,
)

#: Generator families whose ops are all stack-safe (no GEMM, no slicing).
STACK_SAFE_FAMILIES = {"unary": 1.0, "binary": 1.0, "reduction": 0.5}


class _ScriptedQueue:
    """Deterministic queue driven by a virtual clock: item ``i`` becomes
    available at ``arrivals[i]``; ``get`` advances the clock instead of
    sleeping."""

    def __init__(self, arrivals):
        self.arrivals = list(arrivals)
        self.now = 0.0
        self.next_index = 0

    def clock(self):
        return self.now

    def get(self, timeout_s):
        if self.next_index < len(self.arrivals):
            eta = self.arrivals[self.next_index]
            if eta <= self.now + max(timeout_s, 0.0):
                self.now = max(self.now, eta)
                item = self.next_index
                self.next_index += 1
                return item
        self.now += max(timeout_s, 0.0)
        raise queue.Empty


class TestCollectBatch:
    def test_fills_to_max_batch_without_waiting(self):
        script = _ScriptedQueue([0.0] * 10)
        batch, carry = collect_batch(
            "head",
            script.get,
            script.clock,
            BatchConfig(max_batch_size=4, max_linger_s=1.0),
            lambda head, item: True,
        )
        assert len(batch) == 4 and carry is None
        assert script.now == 0.0  # instant fill: no linger spent

    def test_incompatible_item_ends_window_and_carries(self):
        script = _ScriptedQueue(["a", "b", "ODD", "c"])
        script.arrivals = [0.0, 0.0, 0.0, 0.0]
        items = iter(["a", "b", "ODD", "c"])

        def get(timeout_s):
            return next(items)

        batch, carry = collect_batch(
            "head",
            get,
            script.clock,
            BatchConfig(max_batch_size=10, max_linger_s=1.0),
            lambda head, item: item != "ODD",
        )
        assert batch == ["head", "a", "b"]
        assert carry == "ODD"  # next window's head, order preserved

    @pytest.mark.parametrize("trial", range(20))
    def test_no_request_waits_past_the_linger_deadline(self, trial):
        """Window duration never exceeds max_linger_s (simulated time)."""
        rng = np.random.default_rng(trial)
        max_batch = int(rng.integers(1, 9))
        linger = float(rng.uniform(0.0, 0.05))
        arrivals = np.cumsum(rng.uniform(0.0, 0.02, size=12)).tolist()
        script = _ScriptedQueue(arrivals)
        config = BatchConfig(max_batch_size=max_batch, max_linger_s=linger)
        window_start = script.clock()
        batch, carry = collect_batch(
            "head", script.get, script.clock, config, lambda h, i: True
        )
        elapsed = script.clock() - window_start
        assert len(batch) <= max_batch
        # The head entered at window_start and the window closed by the
        # deadline (tiny epsilon for float accumulation in the script).
        assert elapsed <= linger + 1e-9

    def test_zero_linger_drains_backlog_but_never_blocks(self):
        script = _ScriptedQueue([0.0, 0.0, 5.0])  # two queued, one future
        batch, carry = collect_batch(
            "head",
            script.get,
            script.clock,
            BatchConfig(max_batch_size=8, max_linger_s=0.0),
            lambda h, i: True,
        )
        assert len(batch) == 3  # head + the two already-queued items
        assert script.now == 0.0

    def test_config_validation(self):
        with pytest.raises(ExecutionError):
            BatchConfig(max_batch_size=0)
        with pytest.raises(ExecutionError):
            BatchConfig(max_linger_s=-1.0)


class TestStackDecision:
    def _plan(self, graph):
        return DuetEngine().optimize(graph).plan

    def test_elementwise_chain_is_stackable(self):
        decision = analyze_stack_safety(
            self._plan(elementwise_chain(batch=2, width=8, depth=2))
        )
        assert decision.stackable
        assert decision.batch == 2

    def test_dense_is_not_stackable(self):
        b = GraphBuilder("dense")
        x = b.input("x", (2, 8))
        w = b.const((8, 8))
        decision = analyze_stack_safety(self._plan(b.build(b.op("dense", x, w))))
        assert not decision.stackable
        assert "not stack-safe" in decision.reason

    def test_strided_slice_is_not_stackable(self):
        b = GraphBuilder("slice")
        x = b.input("x", (2, 8))
        y = b.op("strided_slice", x, begin=(0, 0), end=(2, 4))
        decision = analyze_stack_safety(self._plan(b.build(y)))
        assert not decision.stackable

    def test_batch_axis_reduction_is_not_stackable(self):
        b = GraphBuilder("axis0")
        x = b.input("x", (2, 8))
        y = b.op("softmax", x, axis=0)
        decision = analyze_stack_safety(self._plan(b.build(y)))
        assert not decision.stackable
        assert "batch axis" in decision.reason

    @pytest.mark.parametrize("index", range(12))
    def test_stack_safe_family_graphs_are_stackable(self, index):
        graph = generate_graph(
            case_rng(77, index),
            GeneratorConfig(max_ops=10, families=dict(STACK_SAFE_FAMILIES)),
        )
        assert analyze_stack_safety(self._plan(graph)).stackable


class TestRunStackedExactness:
    @pytest.mark.parametrize("index", range(10))
    def test_stacked_outputs_bit_identical_to_solo(self, index):
        """run_stacked == per-request session runs, for whitelisted plans."""
        engine = DuetEngine()
        graph = generate_graph(
            case_rng(101, index),
            GeneratorConfig(max_ops=12, families=dict(STACK_SAFE_FAMILIES)),
        )
        opt = engine.optimize(graph)
        decision = analyze_stack_safety(opt.plan)
        assert decision.stackable
        batch_inputs = [
            make_inputs(graph, seed=1000 * index + k) for k in range(5)
        ]
        solo = EngineSession(opt.plan)
        expected = [solo.run(feeds).outputs for feeds in batch_inputs]
        kernel = DispatchKernel(opt.plan, workers=InlineWorkers())
        got = run_stacked(
            lambda feeds: kernel.run(feeds).outputs,
            batch_inputs,
            decision.batch,
        )
        for got_outs, want_outs in zip(got, expected):
            assert len(got_outs) == len(want_outs)
            for g, w in zip(got_outs, want_outs):
                np.testing.assert_array_equal(g, w)


class TestFrontendBatchingProperties:
    """Random (max_batch, linger, arrival-order) configurations."""

    @pytest.mark.parametrize("trial", range(6))
    def test_batched_equals_unbatched_and_histogram_accounts_all(self, trial):
        rng = np.random.default_rng(trial)
        engine = DuetEngine()
        # Alternate between a stack-safe model (stacked execution) and a
        # mixed-family one (per-request dispatch when it cannot stack).
        if trial % 2 == 0:
            config = GeneratorConfig(
                max_ops=8, families=dict(STACK_SAFE_FAMILIES)
            )
        else:
            config = GeneratorConfig(max_ops=8)
        graph = generate_graph(case_rng(55, trial), config)
        opt = engine.optimize(graph)

        n_requests = 24
        seeds = rng.integers(0, 10_000, size=n_requests).tolist()
        solo = EngineSession(opt.plan)
        cases = [
            (make_inputs(graph, seed=int(s)), None) for s in seeds
        ]
        cases = [
            (feeds, solo.run(feeds).outputs) for feeds, _ in cases
        ]
        order = rng.permutation(n_requests)  # random arrival order

        serving = ServingConfig(
            batching=True,
            max_batch_size=int(rng.integers(1, 9)),
            max_linger_s=float(rng.uniform(0.0, 0.005)),
            pool_size=1,
        )
        with engine.serve(opt, config=serving) as frontend:
            stackable = frontend.lane_info()["stackable"]
            futures = [
                (i, frontend.submit(cases[i][0])) for i in order
            ]
            for i, fut in futures:
                result = fut.result(30.0)
                for got, want in zip(result.outputs, cases[i][1]):
                    np.testing.assert_array_equal(got, want)
                assert 1 <= result.batch_size <= serving.max_batch_size
                if not stackable:
                    assert result.batch_size == 1
            sizes = frontend.registry.histogram("duet_batch_size").merged()
            # Every request rode in exactly one batch.
            assert sizes.sum == n_requests
            batches = frontend.registry.counter("duet_batches_total")
            assert batches.total() == sizes.count


class TestWindowOnlyOnStackedSlots:
    """A batching window opens only where the slot can stack it."""

    @pytest.fixture(scope="class")
    def models(self):
        engine = DuetEngine()
        zoo = engine.optimize(build_model("wide_deep", tiny=True))
        chain = engine.optimize(elementwise_chain(batch=2, width=8, depth=2))
        return engine, zoo, chain

    @staticmethod
    def _assert_same(got_outputs, want_outputs):
        assert len(got_outputs) == len(want_outputs)
        for got, want in zip(got_outputs, want_outputs):
            np.testing.assert_array_equal(got, want)

    def test_lone_unstackable_request_never_waits(self, models):
        engine, zoo, chain = models
        feeds = make_inputs(zoo.graph, seed=0)
        want = EngineSession(zoo.plan).run(feeds).outputs
        with engine.serve(zoo, config=ServingConfig(max_linger_s=5.0)) as frontend:
            assert not frontend.lane_info()["stackable"]
            # A 5 s window would outlast the caller's 1 s patience.
            result = frontend.request(feeds, timeout_s=1.0)
        assert result.batch_size == 1 and not result.stacked
        self._assert_same(result.outputs, want)

        # The same config on a stack-safe lane still lingers.
        linger = 0.05
        feeds = make_inputs(chain.graph, seed=0)
        config = ServingConfig(max_linger_s=linger)
        with engine.serve(chain, config=config) as frontend:
            assert frontend.lane_info()["stackable"]
            began = time.perf_counter()
            result = frontend.request(feeds, timeout_s=30.0)
            elapsed = time.perf_counter() - began
        assert result.batch_size == 1
        assert elapsed >= linger

    def test_prequeued_unstackable_burst_is_singleton_dispatches(self, models):
        engine, zoo, chain = models
        n = 6
        cases = {
            name: [make_inputs(opt.graph, seed=k) for k in range(n)]
            for name, opt in (("zoo", zoo), ("chain", chain))
        }
        want = {
            name: [EngineSession(opt.plan).run(f).outputs for f in cases[name]]
            for name, opt in (("zoo", zoo), ("chain", chain))
        }
        frontend = engine.serve(
            {"zoo": zoo, "chain": chain},
            config=ServingConfig(max_batch_size=4, max_linger_s=0.0),
            clock=lambda: 0.0,
            autostart=False,
        )
        futures = {
            name: [frontend.submit(f, model=name) for f in cases[name]]
            for name in cases
        }
        frontend.start()
        results = {
            name: [fut.result(30.0) for fut in futs]
            for name, futs in futures.items()
        }
        frontend.close()
        for name in cases:
            for result, outputs in zip(results[name], want[name]):
                self._assert_same(result.outputs, outputs)

        batches = frontend.registry.counter("duet_batches_total")
        assert batches.value(model="zoo", mode="single") == n
        assert batches.value(model="zoo", mode="fallback") == 0
        assert all(r.batch_size == 1 for r in results["zoo"])
        # The stack-safe lane still drains its backlog as 4 + 2.
        assert batches.value(model="chain", mode="stacked") == 2
        assert batches.value(model="chain", mode="single") == 0
        assert sorted(r.batch_size for r in results["chain"]) == [2] * 2 + [4] * 4

    def test_failed_stacked_run_reruns_each_request(self, models):
        engine, _, chain = models
        first_task = chain.plan.tasks[0].task_id
        injector = FaultInjector(
            FaultPlan(kernel_faults=(KernelFault(first_task, fail_attempts=1),))
        )
        cases = [make_inputs(chain.graph, seed=k) for k in range(4)]
        solo = EngineSession(chain.plan)
        want = [solo.run(f).outputs for f in cases]
        frontend = engine.serve(
            chain,
            config=ServingConfig(max_batch_size=4, max_linger_s=0.0),
            clock=lambda: 0.0,
            fault_injectors={"default": injector},
            autostart=False,
        )
        lane = frontend._lanes["default"]
        settled = []
        settle = lane._settle

        def counting_settle(who, *args, **kwargs):
            settled.append(who)
            settle(who, *args, **kwargs)

        lane._settle = counting_settle
        futures = [frontend.submit(f) for f in cases]
        frontend.start()
        results = [fut.result(30.0) for fut in futures]
        frontend.close()

        # One stacked attempt raised; each request then ran on its own.
        assert injector.task_attempts(first_task) == 1 + len(cases)
        for result, outputs in zip(results, want):
            assert result.batch_size == len(cases) and not result.stacked
            self._assert_same(result.outputs, outputs)
        batches = frontend.registry.counter("duet_batches_total")
        assert batches.value(model="default", mode="fallback") == 1
        assert batches.total() == 1
        requests = frontend.registry.counter("duet_requests_total")
        assert requests.value(model="default", outcome="ok") == len(cases)
        assert requests.total() == len(cases)
        # Every future reached exactly one terminal state.
        assert Counter(map(id, settled)) == Counter(map(id, futures))
