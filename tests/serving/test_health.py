"""Slot-health tests: the units, then device loss through a live lane.

Unit coverage of the three health pieces (:class:`SlotHealth`'s state
machine, :class:`LaneHealth`'s lost-device set, the
:class:`TenantAwareShedder` EWMA math) plus :func:`~repro.runtime.resilient.
survivor_plan` selection.  The integration test then walks the whole
quarantine lifecycle against a real frontend: kill the GPU under a
:class:`~repro.runtime.faults.ScriptedChaosInjector`, watch the slot
quarantine and rebuild onto the CPU's standing degradation plan (the
in-flight request retried once, bit-identically), then revive the device
and watch :meth:`~repro.serving.ServingFrontend.restore_device` stage a
background rebuild the worker adopts at a batch boundary.
"""

import time

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.devices import default_machine
from repro.errors import ExecutionError, ReproError
from repro.ir import make_inputs
from repro.models import build_model
from repro.runtime.faults import ScriptedChaosInjector
from repro.runtime.resilient import survivor_plan
from repro.runtime.session import EngineSession
from repro.serving import (
    SLOT_DEGRADED,
    SLOT_HEALTHY,
    SLOT_QUARANTINED,
    SLOT_STATE_CODES,
    LaneHealth,
    ServingConfig,
    SlotHealth,
    TenantAwareShedder,
)
from repro.testing import mixed_serving_opt


class TestSlotHealth:
    def test_state_codes_cover_all_states(self):
        assert SLOT_STATE_CODES == {
            SLOT_HEALTHY: 0,
            SLOT_QUARANTINED: 1,
            SLOT_DEGRADED: 2,
        }

    def test_failure_streak_counts_and_resets(self):
        health = SlotHealth()
        assert health.record_failure() == 1
        assert health.record_failure() == 2
        health.record_success()
        assert health.consecutive_failures == 0
        assert health.record_failure() == 1

    def test_quarantine_degrade_restore_cycle(self):
        health = SlotHealth()
        health.quarantine()
        assert health.state == SLOT_QUARANTINED
        assert health.quarantines == 1
        health.mark_degraded("cpu")
        assert health.state == SLOT_DEGRADED
        assert health.degraded_device == "cpu"
        assert health.rebuilds == 1
        health.consecutive_failures = 3
        health.mark_healthy()
        assert health.state == SLOT_HEALTHY
        assert health.degraded_device is None
        assert health.consecutive_failures == 0
        assert health.rebuilds == 2


class TestLaneHealth:
    def test_mark_lost_reports_novelty(self):
        lane = LaneHealth()
        assert lane.mark_lost("gpu") is True
        assert lane.mark_lost("gpu") is False
        assert lane.is_lost("gpu")
        assert not lane.is_lost("cpu")
        assert lane.lost_devices == frozenset({"gpu"})

    def test_revive_reports_whether_it_was_lost(self):
        lane = LaneHealth()
        assert lane.revive("gpu") is False
        lane.mark_lost("gpu")
        assert lane.revive("gpu") is True
        assert lane.lost_devices == frozenset()


class TestSurvivorPlan:
    # survivor_plan only reads the mapping; sentinels stand in for plans.
    PLAN_A, PLAN_B = object(), object()

    def test_prefers_first_surviving_device_in_order(self):
        plans = {"cpu": self.PLAN_A, "gpu": self.PLAN_B}
        assert survivor_plan(plans, frozenset()) == ("cpu", self.PLAN_A)
        assert survivor_plan(plans, {"cpu"}) == ("gpu", self.PLAN_B)

    def test_none_when_no_survivor_has_a_plan(self):
        plans = {"cpu": self.PLAN_A, "gpu": self.PLAN_B}
        assert survivor_plan(plans, {"cpu", "gpu"}) is None
        assert survivor_plan({}, frozenset()) is None
        assert survivor_plan({"cpu": self.PLAN_A}, {"cpu"}) is None


class TestAdaptiveShedder:
    """The shedder's EWMA math, driven as a single (default) tenant."""

    def test_knob_validation(self):
        with pytest.raises(ExecutionError):
            TenantAwareShedder(alpha=0.0)
        with pytest.raises(ExecutionError):
            TenantAwareShedder(alpha=1.5)
        with pytest.raises(ExecutionError):
            TenantAwareShedder(warmup=0)

    def test_abstains_before_warmup(self):
        shedder = TenantAwareShedder(warmup=3)
        shedder.observe(1.0, 2.0)
        shedder.observe(1.0, 2.0)
        assert shedder.predicted_sojourn_s() is None
        assert shedder.predicted_queue_wait_s() is None
        assert shedder.unmeetable(1e-9) is None

    def test_ewma_matches_hand_computation(self):
        shedder = TenantAwareShedder(alpha=0.5, warmup=2)
        shedder.observe(1.0, 2.0)  # first sample initializes the means
        shedder.observe(3.0, 4.0)
        assert shedder.predicted_queue_wait_s() == pytest.approx(2.0)
        assert shedder.predicted_sojourn_s() == pytest.approx(3.0)

    def test_unmeetable_compares_margin_scaled_prediction(self):
        shedder = TenantAwareShedder(alpha=1.0, warmup=1)
        shedder.observe(0.5, 1.0)
        assert shedder.unmeetable(0.9) == pytest.approx(1.0)
        assert shedder.unmeetable(1.1) is None
        # A 2x safety margin sheds deadlines under twice the prediction.
        assert shedder.unmeetable(1.5, margin=2.0) == pytest.approx(2.0)
        assert shedder.unmeetable(2.5, margin=2.0) is None

    def test_negative_timings_clamp_to_zero(self):
        shedder = TenantAwareShedder(alpha=1.0, warmup=1)
        shedder.observe(-1.0, -2.0)
        assert shedder.predicted_sojourn_s() == 0.0


def _mixed_setup():
    """A both-device optimization, seeded inputs, and solo reference."""
    graph = build_model("siamese", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    opt = mixed_serving_opt(engine, graph)
    assert {task.device for task in opt.plan.tasks} == {"cpu", "gpu"}
    feeds = make_inputs(graph, seed=0)
    want = [
        np.copy(o) for o in EngineSession(opt.plan, opt=opt).run(feeds).outputs
    ]
    return engine, opt, feeds, want


def _identical(outputs, want):
    return len(outputs) == len(want) and all(
        np.array_equal(got, ref) for got, ref in zip(outputs, want)
    )


class TestDeviceLossRecovery:
    def test_quarantine_rebuild_and_restore_lifecycle(self):
        engine, opt, feeds, want = _mixed_setup()
        injector = ScriptedChaosInjector()
        config = ServingConfig(pool_size=1, batching=False, shedding=False)
        with engine.serve(
            {"m": opt}, config=config, fault_injectors={"m": injector}
        ) as frontend:
            lane = frontend._lanes["m"]
            result = frontend.request(feeds, model="m", timeout_s=30.0)
            assert _identical(result.outputs, want)
            assert frontend.lane_info("m")["slot_states"] == [SLOT_HEALTHY]

            # Kill the GPU mid-service: the slot quarantines, rebuilds
            # onto the CPU's standing degradation plan, and the failing
            # request is retried once — the caller sees only a success.
            injector.lose_device("gpu")
            result = frontend.request(feeds, model="m", timeout_s=30.0)
            assert _identical(result.outputs, want)
            info = frontend.lane_info("m")
            assert info["slot_states"] == [SLOT_DEGRADED]
            assert info["lost_devices"] == ["gpu"]
            slot = lane.slots[0]
            assert slot.health.degraded_device == "cpu"
            assert lane.slot_quarantines.value(model="m") == 1
            assert lane.slot_rebuilds.value(model="m", kind="degraded") == 1
            exposition = frontend.render_metrics()
            assert "duet_slot_quarantines_total" in exposition
            assert 'duet_slot_rebuilds_total{kind="degraded"' in exposition

            # Degraded-but-correct: follow-ups keep serving from the CPU.
            for _ in range(3):
                result = frontend.request(feeds, model="m", timeout_s=30.0)
                assert _identical(result.outputs, want)

            # Revive the device, declare it restored: a background
            # rebuild is staged and adopted at the next batch boundary.
            injector.revive_device("gpu")
            assert frontend.restore_device("gpu", model="m") is True
            deadline = time.monotonic() + 30.0
            while frontend.lane_info("m")["slot_states"] != [SLOT_HEALTHY]:
                if time.monotonic() > deadline:
                    pytest.fail("slot never adopted the restored session")
                result = frontend.request(feeds, model="m", timeout_s=30.0)
                assert _identical(result.outputs, want)
            assert lane.slot_rebuilds.value(model="m", kind="restored") == 1
            assert frontend.lane_info("m")["lost_devices"] == []
            result = frontend.request(feeds, model="m", timeout_s=30.0)
            assert _identical(result.outputs, want)

    def test_requests_in_flight_across_a_loss_settle_exactly_once(self):
        engine, opt, feeds, want = _mixed_setup()
        injector = ScriptedChaosInjector()
        # Every task attempt stalls, so requests queue behind the first.
        injector.set_mode("stall", rate=1, stall_s=5e-3)
        config = ServingConfig(pool_size=1, batching=False, shedding=False)
        with engine.serve(
            {"m": opt}, config=config, fault_injectors={"m": injector}
        ) as frontend:
            futures = [frontend.submit(feeds, model="m") for _ in range(8)]
            futures[0].result(timeout_s=30.0)
            injector.lose_device("gpu")
            queued = [i for i, fut in enumerate(futures) if not fut.dequeued_at]
            settled = []
            for fut in futures:
                try:
                    settled.append(fut.result(timeout_s=30.0).outputs)
                except ReproError as exc:
                    settled.append(exc)
            assert all(fut.done() for fut in futures)
            ok = [i for i, out in enumerate(settled) if not isinstance(out, ReproError)]
            assert all(_identical(settled[i], want) for i in ok)
            assert set(queued) & set(ok), (queued, settled)
            counted = frontend._lanes["m"].requests_total
            assert sum(
                counted.value(model="m", outcome=outcome)
                for outcome in ("ok", "error", "rejected", "shed", "expired")
            ) == len(futures)

    def test_no_survivor_fails_requests_without_hanging(self):
        engine, opt, feeds, _ = _mixed_setup()
        injector = ScriptedChaosInjector()
        config = ServingConfig(pool_size=1, batching=False, shedding=False)
        with engine.serve(
            {"m": opt}, config=config, fault_injectors={"m": injector}
        ) as frontend:
            injector.lose_device("cpu")
            injector.lose_device("gpu")
            # Both devices gone: no degradation plan can help, but every
            # request still reaches a terminal state.
            for _ in range(2):
                with pytest.raises(ReproError):
                    frontend.request(feeds, model="m", timeout_s=30.0)

    def test_restore_stays_degraded_while_any_device_is_lost(self):
        engine, opt, feeds, want = _mixed_setup()
        injector = ScriptedChaosInjector()
        config = ServingConfig(pool_size=1, batching=False, shedding=False)
        with engine.serve(
            {"m": opt}, config=config, fault_injectors={"m": injector}
        ) as frontend:
            lane = frontend._lanes["m"]
            injector.lose_device("gpu")
            result = frontend.request(feeds, model="m", timeout_s=30.0)
            assert _identical(result.outputs, want)
            lane.health.mark_lost("cpu")
            # The primary plan still touches a lost device: nothing to
            # stage, the slot stays on the degradation plan.
            assert frontend.restore_device("gpu", model="m") is False
            assert frontend.lane_info("m")["slot_states"] == [SLOT_DEGRADED]
            lane.health.revive("cpu")
