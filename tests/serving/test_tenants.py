"""Tenant identity, per-tenant shedding, and frontend preemption.

ISSUE 8 satellite 3, in four layers:

* :class:`~repro.serving.tenants.TenantConfig` /
  :class:`~repro.serving.tenants.TenantRegistry` semantics, including
  ``tenants.json`` parsing;
* :class:`~repro.serving.health.TenantAwareShedder` — per-tenant EWMA
  isolation, the oracle-seeded service prior, exact regression pins on
  the EWMA arithmetic, and the shedder × priority interaction: at equal
  load a critical request is never shed in favor of a best-effort one;
* per-tenant metrics exported by the frontend
  (``duet_tenant_queue_delay_seconds``, ``duet_tenant_slo_miss_total``,
  ``duet_tenant_requests_total``, per-tenant latency histograms);
* a *deterministic* phase-boundary preemption through the full serving
  stack: a :class:`~repro.runtime.faults.FaultInjector` subclass
  submits a critical request from inside the best-effort request's
  first task, guaranteeing a waiting preemptor at the phase boundary —
  the best-effort request must suspend, the critical one runs to
  completion first, and both come back bit-identical to solo runs.
"""

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.devices import default_machine
from repro.errors import ExecutionError, LoadShedError
from repro.ir import make_inputs
from repro.models import build_model
from repro.runtime.faults import FaultInjector
from repro.serving import (
    DEFAULT_TENANT,
    PRIORITY_CLASSES,
    PRIORITY_TIERS,
    ServingConfig,
    ServingFrontend,
    TenantAwareShedder,
    TenantConfig,
    TenantRegistry,
    WFQAdmissionQueue,
)


@pytest.fixture(scope="module")
def served():
    graph = build_model("wide_deep", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    opt = engine.optimize(graph)
    feeds = make_inputs(graph, seed=0)
    return engine, opt, feeds


# ---------------------------------------------------------------------------
# TenantConfig / TenantRegistry


class TestTenantConfig:
    def test_priority_classes_map_to_tiers(self):
        assert PRIORITY_CLASSES == ("critical", "standard", "best_effort")
        assert PRIORITY_TIERS == {
            "critical": 0,
            "standard": 1,
            "best_effort": 2,
        }
        for cls in PRIORITY_CLASSES:
            assert TenantConfig(name="t", priority=cls).tier == (
                PRIORITY_TIERS[cls]
            )

    def test_default_tenant_is_standard_weight_one(self):
        assert DEFAULT_TENANT.name == "default"
        assert DEFAULT_TENANT.priority == "standard"
        assert DEFAULT_TENANT.weight == 1.0
        assert DEFAULT_TENANT.tier == 1
        assert DEFAULT_TENANT.slo_p99_s is None
        assert DEFAULT_TENANT.default_deadline_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "t", "priority": "vip"},
            {"name": "t", "weight": 0.0},
            {"name": "t", "weight": -1.0},
            {"name": "t", "slo_p99_s": 0.0},
            {"name": "t", "default_deadline_s": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ExecutionError):
            TenantConfig(**kwargs)


class TestTenantRegistry:
    def test_none_resolves_to_default(self):
        reg = TenantRegistry()
        assert reg.resolve(None) == DEFAULT_TENANT
        assert len(reg) == 0

    def test_configured_default_overrides_anonymous(self):
        custom = TenantConfig(name="default", priority="best_effort")
        reg = TenantRegistry([custom])
        assert reg.resolve(None) is custom
        assert reg.resolve("default") is custom

    def test_unknown_name_resolves_to_fresh_standard(self):
        reg = TenantRegistry([TenantConfig(name="a", priority="critical")])
        cfg = reg.resolve("stranger")
        assert cfg.name == "stranger"
        assert cfg.priority == "standard"
        assert cfg.weight == 1.0

    def test_strict_rejects_unknown(self):
        reg = TenantRegistry(
            [TenantConfig(name="a")], strict=True
        )
        assert reg.resolve("a").name == "a"
        with pytest.raises(ExecutionError, match="unknown tenant"):
            reg.resolve("stranger")
        # None stays legal under strict: anonymous traffic is always ok.
        assert reg.resolve(None) == DEFAULT_TENANT

    def test_duplicate_names_rejected(self):
        with pytest.raises(ExecutionError, match="duplicate"):
            TenantRegistry(
                [TenantConfig(name="a"), TenantConfig(name="a")]
            )

    def test_container_surface(self):
        a, b = TenantConfig(name="a"), TenantConfig(name="b", weight=2.0)
        reg = TenantRegistry([a, b])
        assert len(reg) == 2
        assert "a" in reg and "b" in reg and "c" not in reg
        assert reg.names == ("a", "b")
        assert list(reg) == [a, b]


class TestTenantsJson:
    def test_object_form_with_duration_spellings(self):
        reg = TenantRegistry.from_json(
            """
            {"tenants": [
              {"name": "search", "priority": "critical", "weight": 4,
               "slo_p99_ms": 250, "default_deadline_ms": 1000},
              {"name": "batch-embed", "priority": "best_effort",
               "slo_p99_s": 30}
            ]}
            """
        )
        search = reg.resolve("search")
        assert search.tier == 0
        assert search.weight == 4.0
        assert search.slo_p99_s == pytest.approx(0.25)
        assert search.default_deadline_s == pytest.approx(1.0)
        be = reg.resolve("batch-embed")
        assert be.tier == 2
        assert be.slo_p99_s == pytest.approx(30.0)
        assert be.default_deadline_s is None

    def test_list_form(self):
        reg = TenantRegistry.from_json('[{"name": "a", "weight": 2}]')
        assert reg.resolve("a").weight == 2.0

    @pytest.mark.parametrize(
        "text,match",
        [
            ("{not json", "invalid tenants JSON"),
            ('{"other": []}', '"tenants" list'),
            ('"just a string"', "list or an object"),
            ('[{"priority": "critical"}]', "non-empty string name"),
            ('[42]', "must be an object"),
            ('[{"name": "a", "color": "red"}]', "unknown keys"),
            (
                '[{"name": "a", "slo_p99_s": 1, "slo_p99_ms": 5}]',
                "not both",
            ),
            ('[{"name": "a", "weight": "heavy"}]', "'a': weight must be a number"),
            ('[{"name": "a", "weight": null}]', "'a': weight must be a number"),
            ('[{"name": "a", "weight": true}]', "'a': weight must be a number"),
            ('[{"name": "a", "slo_p99_ms": "x"}]', "'a': slo_p99_ms must be a number"),
            (
                '[{"name": "a", "default_deadline_s": false}]',
                "'a': default_deadline_s must be a number",
            ),
        ],
    )
    def test_malformed_documents_rejected(self, text, match):
        with pytest.raises(ExecutionError, match=match):
            TenantRegistry.from_json(text)

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('[{"name": "a", "priority": "critical"}]')
        reg = TenantRegistry.from_file(path)
        assert reg.resolve("a").tier == 0
        with pytest.raises(ExecutionError, match="cannot read"):
            TenantRegistry.from_file(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# TenantAwareShedder


class TestTenantAwareShedder:
    def test_warm_tenant_empty_queue_matches_adaptive_shedder(self):
        """Regression pin for the single-tenant degeneration: 8
        observations of sojourn 1.0 predict 1.0, and a 0.9s deadline is
        shed with that prediction."""
        shedder = TenantAwareShedder()
        for _ in range(shedder.warmup):
            shedder.observe(0.5, 1.0)
        assert shedder.predicted_sojourn_s() == pytest.approx(1.0)
        assert shedder.predicted_queue_wait_s() == pytest.approx(0.5)
        assert shedder.unmeetable(0.9) == pytest.approx(1.0)
        assert shedder.unmeetable(1.1) is None

    def test_ewma_update_pinned(self):
        """Exact EWMA arithmetic under per-tenant feedback: alpha=0.2
        from a first sample of 1.0 and a second of 2.0 gives 1.2."""
        shedder = TenantAwareShedder(alpha=0.2, warmup=2)
        shedder.observe(0.0, 1.0, tenant="a")
        shedder.observe(0.0, 2.0, tenant="a")
        assert shedder.predicted_sojourn_s(tenant="a") == pytest.approx(1.2)
        # The shared service EWMA follows the same arithmetic
        # (sojourn - wait, first sample seeds, then blends).
        assert shedder.service_estimate_s() == pytest.approx(1.2)
        shedder.observe(0.5, 1.5, tenant="b")  # service 1.0
        assert shedder.service_estimate_s() == pytest.approx(
            1.2 + 0.2 * (1.0 - 1.2)
        )

    def test_tenant_isolation(self):
        """One tenant's inflated sojourns never shed another tenant
        whose own observed latency is fine."""
        shedder = TenantAwareShedder(warmup=4)
        for _ in range(4):
            shedder.observe(0.0, 5.0, tenant="slow")  # terrible sojourns
            shedder.observe(0.0, 0.01, tenant="fast")
        assert shedder.unmeetable(1.0, tenant="slow") == pytest.approx(5.0)
        assert shedder.unmeetable(1.0, tenant="fast") is None

    def test_cold_lane_abstains_entirely(self):
        shedder = TenantAwareShedder(service_prior_s=10.0)
        # Even with a huge oracle prior, zero observations means no
        # shedding: cold lanes never reject on zero evidence.
        assert shedder.unmeetable(0.001, tenant="anyone") is None

    def test_cold_tenant_on_warm_lane_uses_service_estimate(self):
        shedder = TenantAwareShedder(warmup=4)
        for _ in range(4):
            shedder.observe(1.0, 3.0, tenant="veteran")  # service 2.0
        # A brand-new tenant inherits the shared service estimate.
        assert shedder.unmeetable(1.0, tenant="newcomer") == pytest.approx(
            2.0
        )
        assert shedder.unmeetable(2.5, tenant="newcomer") is None

    def test_service_prior_anchors_then_blends(self):
        shedder = TenantAwareShedder(alpha=0.5, service_prior_s=4.0)
        assert shedder.service_estimate_s() == pytest.approx(4.0)
        shedder.observe(0.0, 2.0)  # service 2.0: blend, don't replace
        assert shedder.service_estimate_s() == pytest.approx(
            4.0 + 0.5 * (2.0 - 4.0)
        )

    def test_backlog_term_scales_prediction(self):
        shedder = TenantAwareShedder(warmup=1)
        shedder.observe(0.0, 1.0, tenant="a")  # sojourn 1.0, service 1.0
        assert shedder.unmeetable(1.5, tenant="a", backlog_ahead=0) is None
        assert shedder.unmeetable(
            1.5, tenant="a", backlog_ahead=2
        ) == pytest.approx(3.0)

    def test_margin_scales_prediction(self):
        shedder = TenantAwareShedder(warmup=1)
        shedder.observe(0.0, 1.0, tenant="a")
        assert shedder.unmeetable(1.5, margin=2.0, tenant="a") == (
            pytest.approx(2.0)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"warmup": 0},
            {"service_prior_s": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ExecutionError):
            TenantAwareShedder(**kwargs)


class TestShedderPriorityInteraction:
    """At equal load, critical is never shed in favor of best-effort:
    the shedder's contention term uses ``backlog_ahead``, which is
    monotone in priority tier."""

    def _equal_history(self, shedder, tenants, sojourn=1.0):
        for _ in range(shedder.warmup):
            for t in tenants:
                shedder.observe(0.0, sojourn, tenant=t)

    def test_critical_admitted_where_best_effort_shed(self):
        crit = TenantConfig(name="crit", priority="critical")
        be = TenantConfig(name="be", priority="best_effort")
        shedder = TenantAwareShedder(warmup=2)
        self._equal_history(shedder, ("crit", "be"))

        class Req:
            def __init__(self, tenant):
                self.tenant = tenant

        q = WFQAdmissionQueue(32)
        for _ in range(4):
            q.put_nowait(Req(be))  # equal load: a best-effort backlog

        deadline = 2.0  # base sojourn 1.0 + 4 * 1.0 backlog > 2.0
        assert (
            shedder.unmeetable(
                deadline,
                tenant="be",
                backlog_ahead=q.backlog_ahead(be.tier),
            )
            is not None
        )
        assert (
            shedder.unmeetable(
                deadline,
                tenant="crit",
                backlog_ahead=q.backlog_ahead(crit.tier),
            )
            is None
        )

    def test_prediction_monotone_in_tier_at_equal_load(self):
        shedder = TenantAwareShedder(warmup=2)
        self._equal_history(shedder, ("crit", "std", "be"))
        tenants = [
            TenantConfig(name="crit", priority="critical"),
            TenantConfig(name="std", priority="standard"),
            TenantConfig(name="be", priority="best_effort"),
        ]

        class Req:
            def __init__(self, tenant):
                self.tenant = tenant

        q = WFQAdmissionQueue(32)
        for t in tenants:
            for _ in range(2):
                q.put_nowait(Req(t))
        tiny = 1e-9  # everything is unmeetable; compare the predictions
        preds = [
            shedder.unmeetable(
                tiny, tenant=t.name, backlog_ahead=q.backlog_ahead(t.tier)
            )
            for t in tenants
        ]
        assert all(p is not None for p in preds)
        assert preds == sorted(preds)

    def test_frontend_sheds_best_effort_not_critical(self, served):
        """Through the real submit path: identical warm history, a
        best-effort backlog, one deadline — best-effort is shed,
        critical is admitted."""
        engine, opt, feeds = served
        tenants = TenantRegistry(
            [
                TenantConfig(name="crit", priority="critical"),
                TenantConfig(name="be", priority="best_effort"),
            ]
        )
        frontend = ServingFrontend(
            engine,
            {"m": opt},
            config=ServingConfig(tenants=tenants, queue_capacity=32),
            autostart=False,  # keep the backlog static
        )
        try:
            lane = frontend._lanes["m"]
            for _ in range(lane.shedder.warmup):
                lane.shedder.observe(0.0, 1.0, tenant="crit")
                lane.shedder.observe(0.0, 1.0, tenant="be")
            for _ in range(4):
                frontend.submit(feeds, tenant="be")
            with pytest.raises(LoadShedError):
                frontend.submit(feeds, deadline_s=2.0, tenant="be")
            fut = frontend.submit(feeds, deadline_s=2.0, tenant="crit")
            assert fut.tenant.name == "crit"
            shed = lane.tenant_requests.value(
                model="m", tenant="be", outcome="shed"
            )
            assert shed == 1
            assert (
                lane.tenant_requests.value(
                    model="m", tenant="crit", outcome="shed"
                )
                == 0
            )
        finally:
            frontend.close()


# ---------------------------------------------------------------------------
# Frontend integration: deadline cascade, per-tenant metrics, preemption


class TestDeadlineCascade:
    def test_tenant_default_beats_lane_default(self, served):
        engine, opt, feeds = served
        tenants = TenantRegistry(
            [TenantConfig(name="a", default_deadline_s=0.75)]
        )
        frontend = ServingFrontend(
            engine,
            {"m": opt},
            config=ServingConfig(
                tenants=tenants, default_deadline_s=5.0, shedding=False
            ),
            autostart=False,
        )
        try:
            assert frontend.submit(feeds, tenant="a").deadline_s == 0.75
            assert frontend.submit(feeds, tenant="b").deadline_s == 5.0
            assert frontend.submit(feeds).deadline_s == 5.0
            assert (
                frontend.submit(
                    feeds, tenant="a", deadline_s=0.1
                ).deadline_s
                == 0.1
            )
        finally:
            frontend.close()


class TestPerTenantMetrics:
    def test_tenant_labeled_series(self, served):
        engine, opt, feeds = served
        tenants = TenantRegistry(
            [
                TenantConfig(
                    name="search", priority="critical", slo_p99_s=10.0
                ),
                # An SLO target of ~0 means every completion is a miss.
                TenantConfig(
                    name="slo-doomed", priority="best_effort",
                    slo_p99_s=1e-9,
                ),
            ]
        )
        frontend = ServingFrontend(
            engine,
            {"m": opt},
            config=ServingConfig(tenants=tenants, shedding=False),
        )
        with frontend:
            for _ in range(3):
                frontend.request(feeds, tenant="search", timeout_s=10.0)
            for _ in range(2):
                frontend.request(feeds, tenant="slo-doomed", timeout_s=10.0)
            frontend.request(feeds, timeout_s=10.0)  # anonymous default

            reqs = frontend.registry.counter("duet_tenant_requests_total")
            assert reqs.value(model="m", tenant="search", outcome="ok") == 3
            assert (
                reqs.value(model="m", tenant="slo-doomed", outcome="ok") == 2
            )
            assert reqs.value(model="m", tenant="default", outcome="ok") == 1

            misses = frontend.registry.counter("duet_tenant_slo_miss_total")
            assert misses.value(model="m", tenant="slo-doomed") == 2
            assert misses.value(model="m", tenant="search") == 0

            delay = frontend.registry.histogram(
                "duet_tenant_queue_delay_seconds"
            )
            assert delay.snapshot(model="m", tenant="search").count == 3
            lat = frontend.registry.histogram(
                "duet_tenant_request_latency_seconds"
            )
            assert lat.snapshot(model="m", tenant="slo-doomed").count == 2

            # The exposition names match the DESIGN/ISSUE contract.
            text = frontend.render_metrics()
            for name in (
                "duet_tenant_queue_delay_seconds",
                "duet_tenant_request_latency_seconds",
                "duet_tenant_requests_total",
                "duet_tenant_slo_miss_total",
                "duet_tenant_preemptions_total",
            ):
                assert name in text

    def test_lane_info_reports_tenancy(self, served):
        engine, opt, feeds = served
        tenants = TenantRegistry([TenantConfig(name="a")])
        frontend = ServingFrontend(
            engine,
            {"m": opt},
            config=ServingConfig(tenants=tenants),
            autostart=False,
        )
        try:
            info = frontend.lane_info("m")
            assert info["tenants"] == ("a",)
        finally:
            frontend.close()


class _MidTaskSubmitter(FaultInjector):
    """Chaos hook that submits a critical request from inside the first
    task of the best-effort request — guaranteeing the preemption
    predicate sees a waiting higher-tier arrival at the next phase
    boundary, with no timing dependence at all."""

    def __init__(self):
        super().__init__()
        self.frontend = None
        self.feeds = None
        self.critical_future = None

    def on_task_start(self, task_id: str, device: str) -> None:
        super().on_task_start(task_id, device)
        if self.frontend is not None and self.critical_future is None:
            self.critical_future = self.frontend.submit(
                self.feeds, tenant="vip"
            )


class TestFrontendPreemption:
    def test_critical_preempts_best_effort_at_phase_boundary(self, served):
        engine, opt, feeds = served
        solo = engine.session(opt)
        ref = solo.run(feeds).outputs
        crit_feeds = make_inputs(opt.graph, seed=3)
        crit_ref = solo.run(crit_feeds).outputs

        injector = _MidTaskSubmitter()
        tenants = TenantRegistry(
            [
                TenantConfig(name="vip", priority="critical"),
                TenantConfig(name="bulk", priority="best_effort"),
            ]
        )
        frontend = ServingFrontend(
            engine,
            {"m": opt},
            config=ServingConfig(
                tenants=tenants, shedding=False, batching=False
            ),
            fault_injectors={"m": injector},
        )
        with frontend:
            injector.frontend = frontend
            injector.feeds = crit_feeds
            be_future = frontend.submit(feeds, tenant="bulk")
            be_result = be_future.result(30.0)
            # Stop the hook before the drain below re-triggers it.
            injector.frontend = None

            assert injector.critical_future is not None
            crit_result = injector.critical_future.result(30.0)

            # The best-effort request was suspended at least once...
            assert be_future.preemptions >= 1
            preempted = frontend.registry.counter(
                "duet_tenant_preemptions_total"
            )
            assert preempted.value(model="m", tenant="bulk") == (
                be_future.preemptions
            )
            assert preempted.value(model="m", tenant="vip") == 0
            # ...and both outputs are bit-identical to solo runs.
            for got, want in zip(be_result.outputs, ref):
                np.testing.assert_array_equal(got, want)
            for got, want in zip(crit_result.outputs, crit_ref):
                np.testing.assert_array_equal(got, want)

    def test_critical_tier_itself_never_preempted(self, served):
        """Tier 0 has nobody above it: a critical request passes no
        preemption predicate, so the walk never suspends it."""
        engine, opt, feeds = served
        tenants = TenantRegistry(
            [TenantConfig(name="vip", priority="critical")]
        )
        frontend = ServingFrontend(
            engine,
            {"m": opt},
            config=ServingConfig(tenants=tenants, shedding=False),
        )
        with frontend:
            fut = frontend.submit(feeds, tenant="vip")
            fut.result(30.0)
            assert fut.preemptions == 0
