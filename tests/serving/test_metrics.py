"""Metrics registry tests: pinned values, exposition round-trip, buckets.

The deterministic serving scenario pins *exact* counter/gauge/histogram
values: with an injected constant clock, a pre-filled queue, and zero
linger, every timing-derived observation is exactly 0.0 and every count
is fixed by the batching arithmetic — so two runs must render
byte-identical exposition text.
"""

import math

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.devices import default_machine
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    LoadShedError,
    MetricsError,
    QueueFullError,
    ReproError,
)
from repro.ir import make_inputs
from repro.models import build_model
from repro.runtime.faults import ScriptedChaosInjector
from repro.serving import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_S,
    BreakerConfig,
    MetricsRegistry,
    ServingConfig,
    ServingFrontend,
    TenantConfig,
    TenantRegistry,
    parse_exposition,
    validate_buckets,
)
from repro.testing import elementwise_chain


class TestBucketValidation:
    """The single, central home of bucket-layout validation."""

    def test_canonical_layouts_are_valid(self):
        assert validate_buckets(LATENCY_BUCKETS_S) == LATENCY_BUCKETS_S
        assert validate_buckets(BATCH_SIZE_BUCKETS) == BATCH_SIZE_BUCKETS

    @pytest.mark.parametrize(
        "bad",
        [
            (),
            (1.0, float("inf")),
            (float("nan"),),
            (0.0, 1.0),
            (-1.0, 1.0),
            (1.0, 1.0),
            (2.0, 1.0),
        ],
    )
    def test_invalid_layouts_raise(self, bad):
        with pytest.raises(MetricsError):
            validate_buckets(bad)


class TestFamilies:
    def test_counter_accumulates_per_label(self):
        registry = MetricsRegistry()
        c = registry.counter("reqs")
        c.inc(model="a")
        c.inc(2, model="a")
        c.inc(5, model="b")
        assert c.value(model="a") == 3
        assert c.value(model="b") == 5
        assert c.total() == 8

    def test_counter_rejects_decrease(self):
        with pytest.raises(MetricsError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(4, model="a")
        g.inc(2, model="a")
        g.dec(5, model="a")
        assert g.value(model="a") == 1
        assert g.value(model="never") == 0.0

    def test_histogram_counts_and_sum(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        # (0,1]: 0.5, 1.0; (1,2]: 1.5; (2,4]: 3.0; +Inf: 100.0
        assert snap.counts == (2, 1, 1, 1)
        assert snap.count == 5
        assert snap.sum == pytest.approx(106.0)

    def test_quantile_interpolates_within_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        for _ in range(4):
            h.observe(1.5)  # all in (1, 2]
        snap = h.snapshot()
        # rank 2 of 4 is midway through the (1, 2] bucket.
        assert snap.quantile(0.5) == pytest.approx(1.5)
        assert snap.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_edge_cases(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        assert math.isnan(h.snapshot().quantile(0.5))
        h.observe(50.0)  # overflow bucket clamps to the last bound
        assert h.snapshot().quantile(0.99) == 2.0
        with pytest.raises(MetricsError):
            h.snapshot().quantile(1.5)

    def test_quantile_estimate_flags_overflow(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        for _ in range(9):
            h.observe(0.5)
        h.observe(50.0)  # lands in +Inf
        snap = h.snapshot()
        # p50 is safely inside the finite buckets.
        value, overflowed = snap.quantile_estimate(0.5)
        assert not overflowed and value <= 1.0
        # p99's rank falls in the overflow bucket: the clamped value is
        # only a lower bound and the caller must be told.
        value, overflowed = snap.quantile_estimate(0.99)
        assert overflowed and value == 2.0
        assert snap.overflow_count == 1
        # quantile() keeps its historical float-only contract.
        assert snap.quantile(0.99) == value

    def test_quantile_estimate_no_overflow_without_inf_hits(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.5)
        snap = h.snapshot()
        assert snap.overflow_count == 0
        _, overflowed = snap.quantile_estimate(1.0)
        assert not overflowed
        # Empty series: NaN, not flagged.
        empty = MetricsRegistry().histogram("lat2", buckets=(1.0,)).snapshot()
        value, overflowed = empty.quantile_estimate(0.9)
        assert math.isnan(value) and not overflowed

    def test_registry_same_name_same_type_is_shared(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_registry_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError, match="already registered"):
            registry.gauge("x")


class TestExpositionRoundTrip:
    def _sample_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("reqs", help="requests").inc(3, model="a", outcome="ok")
        registry.counter("reqs").inc(1, model="b", outcome="error")
        registry.gauge("depth").set(2.5, model="a")
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05, model="a")
        h.observe(0.5, model="a")
        h.observe(7.0, model="a")
        return registry

    def test_render_parses_back_to_the_same_samples(self):
        registry = self._sample_registry()
        samples = parse_exposition(registry.render())
        assert samples[("reqs", (("model", "a"), ("outcome", "ok")))] == 3
        assert samples[("reqs", (("model", "b"), ("outcome", "error")))] == 1
        assert samples[("depth", (("model", "a"),))] == 2.5
        key = ("lat_bucket", (("le", "0.1"), ("model", "a")))
        assert samples[key] == 1
        assert samples[("lat_bucket", (("le", "1"), ("model", "a")))] == 2
        assert samples[("lat_bucket", (("le", "+Inf"), ("model", "a")))] == 3
        assert samples[("lat_count", (("model", "a"),))] == 3
        assert samples[("lat_sum", (("model", "a"),))] == pytest.approx(7.55)

    @pytest.mark.parametrize(
        "bad",
        [
            "no_value_here",
            'name{unterminated="x" 1',
            'name{noquotes=x} 1',
            "name twelve",
        ],
    )
    def test_parser_rejects_malformed_lines(self, bad):
        with pytest.raises(MetricsError):
            parse_exposition(bad)


class TestDeterministicServingScenario:
    """Single-threaded, constant-clock serving run with pinned metrics."""

    N_REQUESTS = 6
    MAX_BATCH = 4

    @pytest.fixture(scope="class")
    def engine_and_opt(self):
        engine = DuetEngine()
        graph = elementwise_chain(batch=2, width=8, depth=2)
        return engine, engine.optimize(graph), graph

    def _run_scenario(self, engine_and_opt) -> MetricsRegistry:
        engine, opt, graph = engine_and_opt
        registry = MetricsRegistry()
        feeds = make_inputs(graph, seed=3)
        frontend = engine.serve(
            opt,
            config=ServingConfig(
                batching=True,
                max_batch_size=self.MAX_BATCH,
                max_linger_s=0.0,  # drain what is queued, never wait
                pool_size=1,
            ),
            registry=registry,
            clock=lambda: 0.0,
            autostart=False,
        )
        futures = [frontend.submit(feeds) for _ in range(self.N_REQUESTS)]
        frontend.start()
        for fut in futures:
            fut.result(10.0)
        frontend.close()
        return registry

    def test_pinned_counter_and_histogram_values(self, engine_and_opt):
        _, opt, _ = engine_and_opt
        registry = self._run_scenario(engine_and_opt)

        reqs = registry.counter("duet_requests_total")
        assert reqs.value(model="default", outcome="ok") == self.N_REQUESTS
        assert reqs.total() == self.N_REQUESTS

        # 6 pre-queued requests drain as one batch of 4 then one of 2.
        batches = registry.counter("duet_batches_total")
        assert batches.value(model="default", mode="stacked") == 2
        assert batches.total() == 2

        sizes = registry.histogram("duet_batch_size").snapshot(model="default")
        assert sizes.count == 2
        assert sizes.sum == self.N_REQUESTS
        by_bound = dict(zip(sizes.bounds, sizes.counts))
        assert by_bound[2.0] == 1 and by_bound[4.0] == 1

        # The injected clock never advances: every timing metric is 0.0.
        waits = registry.histogram("duet_queue_wait_seconds").snapshot(
            model="default"
        )
        assert waits.count == self.N_REQUESTS and waits.sum == 0.0
        assert waits.counts[0] == self.N_REQUESTS  # all in the first bucket
        lat = registry.histogram("duet_request_latency_seconds").snapshot(
            model="default"
        )
        assert lat.count == self.N_REQUESTS and lat.sum == 0.0
        busy = registry.counter("duet_device_busy_seconds_total")
        assert busy.total() == 0.0

        # Two dispatches, each running every task of the plan once.
        attempts = registry.counter("duet_task_attempts_total")
        assert attempts.total() == 2 * len(opt.plan.tasks)
        assert registry.counter("duet_task_errors_total").total() == 0

        assert registry.gauge("duet_queue_depth").value(model="default") == 0
        assert registry.gauge("duet_inflight_requests").value(model="default") == 0

    def test_exposition_is_stable_across_identical_runs(self, engine_and_opt):
        first = self._run_scenario(engine_and_opt).render()
        second = self._run_scenario(engine_and_opt).render()
        assert first == second
        # And it parses: the stable text is also well-formed.
        assert parse_exposition(first)

    def test_snapshot_matches_exposition(self, engine_and_opt):
        registry = self._run_scenario(engine_and_opt)
        snap = registry.snapshot()
        samples = parse_exposition(registry.render())
        key = (("model", "default"), ("outcome", "ok"))
        assert snap["duet_requests_total"]["samples"][key] == samples[
            ("duet_requests_total", key)
        ]
        hist = snap["duet_batch_size"]["samples"][(("model", "default"),)]
        assert hist["count"] == samples[
            ("duet_batch_size_count", (("model", "default"),))
        ]


def _drive_ok(frontend, feeds, now, injector, lane):
    futures = [frontend.submit(feeds, tenant="a")]
    frontend.start()
    futures[0].result(30.0)
    return futures


def _drive_error(frontend, feeds, now, injector, lane):
    injector.lose_device("cpu")
    injector.lose_device("gpu")  # no survivor: the request fails terminally
    futures = [frontend.submit(feeds, tenant="a")]
    frontend.start()
    with pytest.raises(ReproError):
        futures[0].result(30.0)
    return futures


def _drive_expired(frontend, feeds, now, injector, lane):
    futures = [frontend.submit(feeds, tenant="a", deadline_s=1.0)]
    now[0] = 5.0  # the deadline passes while the request sits queued
    frontend.start()
    with pytest.raises(DeadlineExceededError):
        futures[0].result(30.0)
    return futures


def _drive_shed_unmeetable(frontend, feeds, now, injector, lane):
    for _ in range(lane.shedder.warmup):
        lane.shedder.observe(1.0, 2.0, tenant="a")
    with pytest.raises(LoadShedError):
        frontend.submit(feeds, tenant="a", deadline_s=0.5)
    return []


def _drive_shed_breaker(frontend, feeds, now, injector, lane):
    lane.breaker.record_failure()  # failure_threshold=1 trips it open
    with pytest.raises(CircuitOpenError):
        frontend.submit(feeds, tenant="a")
    return []


def _drive_rejected_full(frontend, feeds, now, injector, lane):
    futures = [frontend.submit(feeds, tenant="a")]
    with pytest.raises(QueueFullError):
        frontend.submit(feeds, tenant="a")
    return futures  # the admitted one is drained by close()


def _drive_rejected_closed(frontend, feeds, now, injector, lane):
    return [frontend.submit(feeds, tenant="a")]  # never started; close() drains


class TestSettleAccounting:
    """Every terminal outcome is counted once per model *and* once per
    tenant, and every admitted future reaches exactly one terminal state."""

    CASES = [
        # (case id, driver, config overrides, {outcome: expected count})
        ("ok", _drive_ok, {}, {"ok": 1}),
        ("error", _drive_error, {}, {"error": 1}),
        ("expired", _drive_expired, {}, {"expired": 1}),
        ("shed-unmeetable", _drive_shed_unmeetable, {"shedding": True}, {"shed": 1}),
        (
            "shed-breaker",
            _drive_shed_breaker,
            {"breaker": BreakerConfig(failure_threshold=1, recovery_timeout_s=60.0)},
            {"shed": 1},
        ),
        (
            "rejected-full",
            _drive_rejected_full,
            {"queue_capacity": 1, "admission": "reject"},
            {"rejected": 2},
        ),
        ("rejected-closed", _drive_rejected_closed, {}, {"rejected": 1}),
    ]

    @pytest.fixture(scope="class")
    def served(self):
        graph = build_model("siamese", tiny=True)
        engine = DuetEngine(machine=default_machine(noisy=False))
        return engine, engine.optimize(graph), make_inputs(graph, seed=0)

    @pytest.mark.parametrize(
        "drive, overrides, expected",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_tenant_totals_sum_to_model_totals(
        self, served, drive, overrides, expected
    ):
        engine, opt, feeds = served
        now = [0.0]
        injector = ScriptedChaosInjector()
        config = ServingConfig(
            **{
                "batching": False,
                "shedding": False,
                "tenants": TenantRegistry([TenantConfig(name="a")]),
                **overrides,
            }
        )
        frontend = ServingFrontend(
            engine,
            {"m": opt},
            config=config,
            clock=lambda: now[0],
            fault_injectors={"m": injector},
            autostart=False,
        )
        try:
            futures = drive(frontend, feeds, now, injector, frontend._lanes["m"])
        finally:
            frontend.close()

        per_model = frontend.registry.counter("duet_requests_total")
        per_tenant = frontend.registry.counter("duet_tenant_requests_total")
        assert per_model.total() == sum(expected.values())
        assert per_tenant.total() == per_model.total()
        for outcome, count in expected.items():
            assert per_model.value(model="m", outcome=outcome) == count
            assert (
                per_tenant.value(model="m", tenant="a", outcome=outcome) == count
            )
        for fut in futures:
            assert fut.done()
            assert (fut._result is None) != (fut._error is None)
