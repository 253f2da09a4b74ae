"""Tests for the online-adaptation engine."""

import numpy as np
import pytest

from repro.core import AdaptiveDuetEngine, DuetEngine
from repro.devices import Machine, default_machine, scale_device
from repro.errors import SchedulingError
from repro.models import build_model
from repro.runtime import simulate


def _contended(machine, cpu=1.0, gpu=1.0):
    return Machine(
        devices=(
            scale_device(machine.device("cpu"), cpu),
            scale_device(machine.device("gpu"), gpu),
        ),
        links=machine.links,
    )


@pytest.fixture(scope="module")
def wd_graph():
    return build_model("wide_deep")


class TestAdaptiveEngine:
    def test_requires_start(self, machine):
        engine = AdaptiveDuetEngine(base_machine=machine)
        with pytest.raises(SchedulingError):
            engine.serve_one()

    def test_stable_under_nominal_conditions(self, machine, wd_graph):
        engine = AdaptiveDuetEngine(base_machine=machine)
        engine.start(wd_graph)
        for _ in range(30):
            rec = engine.serve_one()
            assert not rec.adapted
        assert engine.adaptations == 0
        assert engine.assumed_slowdown == {"cpu": 1.0, "gpu": 1.0}

    def test_detects_cpu_contention(self, machine, wd_graph):
        engine = AdaptiveDuetEngine(base_machine=machine, cooldown=5)
        engine.start(wd_graph)
        contended = _contended(machine, cpu=4.0)
        for _ in range(40):
            engine.serve_one(contended)
        assert engine.adaptations >= 1
        # Belief converges near the true factor.
        assert 2.0 < engine.assumed_slowdown["cpu"] < 6.0
        assert engine.assumed_slowdown["gpu"] == pytest.approx(1.0)

    def test_adaptation_improves_latency(self, machine, wd_graph):
        engine = AdaptiveDuetEngine(base_machine=machine, cooldown=5)
        engine.start(wd_graph)
        static_plan = engine.plan
        contended = _contended(machine, cpu=4.0)
        last = None
        for _ in range(50):
            last = engine.serve_one(contended)
        static_latency = simulate(static_plan, contended).latency
        assert last.latency < static_latency * 0.95

    def test_detects_gpu_throttling(self, machine, wd_graph):
        engine = AdaptiveDuetEngine(base_machine=machine, cooldown=5)
        engine.start(wd_graph)
        throttled = _contended(machine, gpu=8.0)
        for _ in range(40):
            engine.serve_one(throttled)
        assert engine.assumed_slowdown["gpu"] > 3.0

    def test_cooldown_limits_thrash(self, machine, wd_graph):
        engine = AdaptiveDuetEngine(base_machine=machine, cooldown=25)
        engine.start(wd_graph)
        contended = _contended(machine, cpu=4.0)
        for _ in range(50):
            engine.serve_one(contended)
        assert engine.adaptations <= 2

    def test_recovery_after_contention_clears(self, machine, wd_graph):
        engine = AdaptiveDuetEngine(base_machine=machine, cooldown=5)
        engine.start(wd_graph)
        contended = _contended(machine, cpu=4.0)
        for _ in range(40):
            engine.serve_one(contended)
        # Contention clears; the engine should walk its belief back down.
        for _ in range(60):
            rec = engine.serve_one(machine)
        assert engine.assumed_slowdown["cpu"] < 2.0
        nominal = DuetEngine(machine=machine).optimize(wd_graph).latency
        assert rec.latency < nominal * 1.3

    def test_serve_records_well_formed(self, machine, wd_graph):
        engine = AdaptiveDuetEngine(base_machine=machine)
        engine.start(wd_graph)
        rec = engine.serve_one()
        assert rec.index == 1
        assert rec.latency > 0
        assert set(rec.assumed_slowdown) == {"cpu", "gpu"}
        assert rec.placement == engine.placement


class TestMisuseGuards:
    """serve_one must fail with SchedulingError, never AttributeError."""

    def test_expected_is_a_declared_field(self, machine):
        engine = AdaptiveDuetEngine(base_machine=machine)
        assert engine._expected == {}

    def test_manually_assigned_plan_rejected(self, machine, wd_graph):
        # Bypassing start() leaves the drift monitor without its
        # per-task expectations; serve_one must refuse cleanly.
        donor = AdaptiveDuetEngine(base_machine=machine)
        donor.start(wd_graph)
        engine = AdaptiveDuetEngine(base_machine=machine)
        engine.plan = donor.plan  # misuse: no start()
        engine.graph = wd_graph
        with pytest.raises(SchedulingError, match="start"):
            engine.serve_one()

    def test_start_resets_expectations(self, machine, wd_graph):
        engine = AdaptiveDuetEngine(base_machine=machine)
        engine.start(wd_graph)
        first = dict(engine._expected)
        assert first  # populated for every task in the plan
        assert set(first) == {t.task_id for t in engine.plan.tasks}
        engine.start(wd_graph)
        assert set(engine._expected) == set(first)
