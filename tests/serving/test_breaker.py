"""Circuit-breaker tests: the state machine alone, then wired into a lane.

The unit tests drive :class:`~repro.serving.breaker.CircuitBreaker` with
an injected clock, so every transition — closed → open at the failure
threshold, the lazy open → half-open hop after the recovery timeout,
probe reservation and release, reclose and reopen — is asserted without
sleeping.  The integration tests then trip a real serving lane's breaker
by killing both devices under a :class:`~repro.runtime.faults.
ScriptedChaosInjector` (slot health disabled, so every request fails
terminally) and watch :meth:`~repro.serving.ServingFrontend.submit`
reject fast with :class:`~repro.errors.CircuitOpenError`.
"""

import time

import pytest

from repro.core import DuetEngine
from repro.devices import default_machine
from repro.errors import CircuitOpenError, DeviceLostError, ExecutionError
from repro.ir import make_inputs
from repro.models import build_model
from repro.runtime.faults import ScriptedChaosInjector
from repro.serving import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
    ServingConfig,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


def make_breaker(listener=None, **kwargs):
    clock = FakeClock()
    config = BreakerConfig(
        failure_threshold=kwargs.pop("failure_threshold", 3),
        recovery_timeout_s=kwargs.pop("recovery_timeout_s", 1.0),
        half_open_probes=kwargs.pop("half_open_probes", 1),
        success_threshold=kwargs.pop("success_threshold", 1),
    )
    assert not kwargs
    return CircuitBreaker(config, clock=clock, listener=listener), clock


def trip(breaker):
    for _ in range(breaker.config.failure_threshold):
        breaker.record_failure()


class TestBreakerConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"failure_threshold": 0},
            {"recovery_timeout_s": -0.1},
            {"half_open_probes": 0},
            {"success_threshold": 0},
        ],
    )
    def test_invalid_knobs_raise(self, bad):
        with pytest.raises(ExecutionError):
            BreakerConfig(**bad)

    def test_state_codes_cover_all_states(self):
        assert BREAKER_STATE_CODES == {
            BREAKER_CLOSED: 0,
            BREAKER_HALF_OPEN: 1,
            BREAKER_OPEN: 2,
        }


class TestStateMachine:
    def test_starts_closed_and_admits(self):
        breaker, _ = make_breaker()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        assert breaker.retry_after_s() == 0.0

    def test_success_resets_the_failure_streak(self):
        breaker, _ = make_breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_trips_at_threshold_and_rejects(self):
        breaker, clock = make_breaker(failure_threshold=3)
        trip(breaker)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(1.0)
        clock.advance(0.4)
        assert breaker.retry_after_s() == pytest.approx(0.6)

    def test_half_opens_lazily_after_recovery_timeout(self):
        breaker, clock = make_breaker()
        trip(breaker)
        clock.advance(0.999)
        assert breaker.state == BREAKER_OPEN
        clock.advance(0.001)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.retry_after_s() == 0.0

    def test_half_open_reserves_bounded_probes(self):
        breaker, clock = make_breaker(half_open_probes=2)
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()

    def test_discard_releases_a_probe_slot(self):
        breaker, clock = make_breaker()
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_discard()
        assert breaker.allow()
        assert breaker.state == BREAKER_HALF_OPEN

    def test_probe_success_recloses(self):
        breaker, clock = make_breaker()
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_success_threshold_needs_that_many_probes(self):
        breaker, clock = make_breaker(half_open_probes=2, success_threshold=2)
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_probe_failure_reopens_and_restarts_the_timeout(self):
        breaker, clock = make_breaker()
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.retry_after_s() == pytest.approx(1.0)
        clock.advance(0.5)
        assert not breaker.allow()
        clock.advance(0.5)
        assert breaker.allow()

    def test_open_state_ignores_stragglers(self):
        # Requests admitted just before the trip may still resolve; their
        # outcomes must not perturb the open state.
        breaker, _ = make_breaker()
        trip(breaker)
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_listener_sees_every_transition_in_order(self):
        seen = []
        breaker, clock = make_breaker(
            listener=lambda old, new: seen.append((old, new))
        )
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert seen == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]


class TestBreakerServing:
    """The breaker wired into a live lane: trip, fast-reject, recover."""

    def test_lane_trips_rejects_and_recovers(self):
        graph = build_model("siamese", tiny=True)
        engine = DuetEngine(machine=default_machine(noisy=False))
        feeds = make_inputs(graph, seed=0)
        injector = ScriptedChaosInjector()
        config = ServingConfig(
            pool_size=1,
            batching=False,
            shedding=False,
            breaker=BreakerConfig(failure_threshold=2, recovery_timeout_s=0.05),
        )
        with engine.serve(
            graph, config=config, fault_injectors={"default": injector}
        ) as frontend:
            lane = frontend._lanes["default"]
            frontend.request(feeds, timeout_s=30.0)
            assert frontend.lane_info()["breaker_state"] == BREAKER_CLOSED

            # Both devices lost: no survivor to fail over to, so requests
            # fail terminally, which is what feeds the breaker.
            injector.lose_device("cpu")
            injector.lose_device("gpu")
            for _ in range(2):
                with pytest.raises(DeviceLostError):
                    frontend.request(feeds, timeout_s=30.0)
            assert frontend.lane_info()["breaker_state"] == BREAKER_OPEN

            # Open: structured fast rejection, no queueing.
            with pytest.raises(CircuitOpenError) as excinfo:
                frontend.submit(feeds)
            assert excinfo.value.model == "default"
            assert excinfo.value.retry_after_s >= 0.0
            assert (
                lane.shed_total.value(model="default", reason="breaker_open")
                >= 1
            )
            assert lane.requests_total.value(model="default", outcome="shed") >= 1

            # Heal the devices, wait out the recovery timeout: the next
            # request rides a half-open probe and recloses the breaker.
            injector.revive_device("cpu")
            injector.revive_device("gpu")
            time.sleep(0.06)
            frontend.request(feeds, timeout_s=30.0)
            assert frontend.lane_info()["breaker_state"] == BREAKER_CLOSED
            assert (
                lane.breaker_transitions.value(
                    model="default",
                    from_state=BREAKER_HALF_OPEN,
                    to_state=BREAKER_CLOSED,
                )
                == 1
            )

    def test_queue_full_rejection_releases_probe_slot(self):
        # A half-open admission that dies at the queue must hand its
        # probe slot back, or the lane can never probe again.
        breaker, clock = make_breaker()
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        # submit() failed downstream (queue full / shed): discard.
        breaker.record_discard()
        assert breaker.allow(), "probe slot leaked by a failed admission"
