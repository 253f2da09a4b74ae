"""Deadline tests: future timeouts, queue expiry, and adaptive shedding.

Three layers of the deadline story:

* :meth:`ServeFuture.result` raising a structured
  :class:`~repro.errors.DeadlineExceededError` — with elapsed-time and
  queue-time context — when the caller's wait times out (previously a
  generic failure);
* expiry at dequeue: deadlined work still queued past its budget is
  dropped by the worker (head check and the batch window's ``drop``
  hook) instead of occupying batch slots;
* admission-time shedding: once the lane's
  :class:`~repro.serving.health.TenantAwareShedder` has evidence the
  observed sojourn cannot meet a deadline, :meth:`ServingFrontend.submit`
  raises :class:`~repro.errors.LoadShedError` immediately.
"""

import queue
import time

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.devices import default_machine
from repro.errors import DeadlineExceededError, ExecutionError, LoadShedError
from repro.ir import make_inputs
from repro.models import build_model
from repro.serving import ServeFuture, ServingConfig
from repro.serving.batcher import BatchConfig, collect_batch


@pytest.fixture(scope="module")
def served():
    graph = build_model("wide_deep", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    opt = engine.optimize(graph)
    feeds = make_inputs(graph, seed=0)
    return engine, opt, feeds


class TestServeFutureTimeout:
    def test_timeout_raises_structured_deadline_error(self):
        fut = ServeFuture("m", {"x": np.zeros(2, dtype=np.float32)})
        with pytest.raises(
            DeadlineExceededError, match="did not complete within"
        ) as excinfo:
            fut.result(timeout_s=0.01)
        assert "'m'" in str(excinfo.value)
        # Structured: a subclass the caller can catch apart from other
        # execution failures, not a bare ExecutionError.
        assert isinstance(excinfo.value, ExecutionError)
        assert type(excinfo.value) is DeadlineExceededError

    def test_timeout_reports_elapsed_and_queued_context(self):
        clock_now = [10.0]
        fut = ServeFuture(
            "m",
            {"x": np.zeros(2, dtype=np.float32)},
            clock=lambda: clock_now[0],
        )
        fut.enqueued_at = 4.0
        with pytest.raises(DeadlineExceededError, match="still queued"):
            fut.result(timeout_s=0.0)
        fut.dequeued_at = 9.0
        with pytest.raises(
            DeadlineExceededError, match=r"6.0000s since admission"
        ) as excinfo:
            fut.result(timeout_s=0.0)
        assert "5.0000s of it queued" in str(excinfo.value)

    def test_resolved_future_is_unaffected(self, served):
        engine, opt, feeds = served
        with engine.serve(opt, config=ServingConfig(pool_size=1)) as frontend:
            fut = frontend.submit(feeds)
            result = fut.result(timeout_s=30.0)
            assert result.model == "default"
            assert fut.done()


class TestQueueExpiry:
    def test_expired_head_dropped_at_dequeue(self, served):
        engine, opt, feeds = served
        config = ServingConfig(pool_size=1, batching=False, shedding=False)
        frontend = engine.serve(opt, config=config, autostart=False)
        try:
            fut = frontend.submit(feeds, deadline_s=0.01)
            assert fut.expires_at < float("inf")
            time.sleep(0.05)
            frontend.start()
            with pytest.raises(
                DeadlineExceededError, match="expired in queue"
            ):
                fut.result(timeout_s=30.0)
            lane = frontend._lanes["default"]
            assert (
                lane.requests_total.value(model="default", outcome="expired")
                == 1
            )
            assert lane.shed_total.value(model="default", reason="expired") == 1
        finally:
            frontend.close()

    def test_undeadlined_requests_never_expire(self, served):
        engine, opt, feeds = served
        with engine.serve(opt, config=ServingConfig(pool_size=1)) as frontend:
            fut = frontend.submit(feeds)
            assert fut.deadline_s is None
            assert fut.expires_at == float("inf")
            fut.result(timeout_s=30.0)

    def test_default_deadline_applies_to_bare_submits(self, served):
        engine, opt, feeds = served
        config = ServingConfig(pool_size=1, default_deadline_s=45.0)
        with engine.serve(opt, config=config) as frontend:
            fut = frontend.submit(feeds)
            assert fut.deadline_s == 45.0
            fut.result(timeout_s=30.0)

    def test_submit_rejects_nonpositive_deadline(self, served):
        engine, opt, feeds = served
        with engine.serve(opt, config=ServingConfig(pool_size=1)) as frontend:
            with pytest.raises(ExecutionError, match="deadline_s"):
                frontend.submit(feeds, deadline_s=0.0)

    def test_config_validates_deadline_and_margin(self):
        with pytest.raises(ExecutionError):
            ServingConfig(default_deadline_s=0.0)


class TestBatchWindowDrop:
    """The batcher's ``drop`` hook: expired joiners leave the window."""

    @staticmethod
    def _collect(items, drop, max_batch_size=8):
        pending = list(items)

        def get(timeout_s):
            if not pending:
                raise queue.Empty
            return pending.pop(0)

        dropped = []
        batch, carry = collect_batch(
            "head",
            get,
            lambda: 0.0,
            BatchConfig(max_batch_size=max_batch_size, max_linger_s=1e-3),
            compatible=lambda head, item: item != "incompatible",
            drop=drop,
            on_drop=dropped.append,
        )
        return batch, carry, dropped

    def test_dropped_joiners_skip_the_batch_without_closing_it(self):
        batch, carry, dropped = self._collect(
            ["stale-1", "fresh-1", "stale-2", "fresh-2"],
            drop=lambda item: item.startswith("stale"),
        )
        assert batch == ["head", "fresh-1", "fresh-2"]
        assert dropped == ["stale-1", "stale-2"]
        assert carry is None

    def test_head_is_never_dropped(self):
        batch, carry, dropped = self._collect(
            ["fresh-1"], drop=lambda item: True
        )
        assert batch == ["head"]
        assert dropped == ["fresh-1"]

    def test_incompatible_carry_is_not_dropped(self):
        batch, carry, dropped = self._collect(
            ["incompatible", "fresh-1"], drop=lambda item: False
        )
        assert batch == ["head"]
        assert carry == "incompatible"
        assert dropped == []


class TestAdaptiveSheddingAtSubmit:
    def test_unmeetable_deadline_is_shed_with_context(self, served):
        engine, opt, feeds = served
        config = ServingConfig(pool_size=1, batching=False)
        with engine.serve(opt, config=config) as frontend:
            lane = frontend._lanes["default"]
            # Feed the shedder hard evidence of one-second sojourns.
            for _ in range(lane.shedder.warmup):
                lane.shedder.observe(0.5, 1.0)
            with pytest.raises(LoadShedError) as excinfo:
                frontend.submit(feeds, deadline_s=0.1)
            assert excinfo.value.model == "default"
            assert excinfo.value.deadline_s == pytest.approx(0.1)
            assert excinfo.value.predicted_s == pytest.approx(1.0)
            assert (
                lane.shed_total.value(model="default", reason="unmeetable")
                == 1
            )
            assert (
                lane.requests_total.value(model="default", outcome="shed") == 1
            )
            # A meetable deadline and a deadline-less request both pass.
            frontend.request(feeds, deadline_s=30.0, timeout_s=30.0)
            frontend.request(feeds, timeout_s=30.0)

    def test_shedding_disabled_admits_doomed_deadlines(self, served):
        engine, opt, feeds = served
        config = ServingConfig(pool_size=1, batching=False, shedding=False)
        with engine.serve(opt, config=config) as frontend:
            assert frontend._lanes["default"].shedder is None
            # Tight-but-feasible deadline on an idle lane: admitted.
            frontend.request(feeds, deadline_s=30.0, timeout_s=30.0)
