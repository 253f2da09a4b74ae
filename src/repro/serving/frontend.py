"""The in-process serving frontend: admission, batching, session pools.

:class:`ServingFrontend` is the front door the ROADMAP's serving story
needs: it owns one *lane* per model — a bounded admission queue plus a
pool of worker threads, each holding its own
:class:`~repro.runtime.session.EngineSession` — and, where a worker's
plan is stack-safe, coalesces compatible waiting requests into dynamic
batches (see :mod:`repro.serving.batcher`).  A worker whose plan cannot
stack opens no batching window: it dispatches each request the moment
it dequeues it.

Admission control is explicit backpressure: a full queue either rejects
immediately with :class:`~repro.errors.QueueFullError`
(``admission="reject"``) or blocks the submitter until space frees up
(``admission="block"``, optionally bounded by ``submit_timeout_s``).

Execution of a batch takes one of three modes, all bit-identical per
request to a solo :class:`~repro.runtime.session.EngineSession` run:

* ``stacked`` — the plan passed :func:`~repro.serving.batcher.
  analyze_stack_safety`, so the batch executes as *one* dispatch over
  inputs concatenated along the batch axis and is split back per request
  (the actual throughput lever: one NumPy kernel invocation per op for
  the whole batch);
* ``fallback`` — the stacked attempt raised, so the batch's requests
  re-run back to back on the worker's session (the only way several
  requests reach the per-request path);
* ``single`` — the batch holds one request (every request of a worker
  whose plan is not stack-safe, or with batching off).

On top of admission and batching sits a resilience layer composing the
existing fault machinery into the frontend:

* **health-checked session pools** — each worker slot carries a
  :class:`~repro.serving.health.SlotHealth` record; a
  :class:`~repro.errors.DeviceLostError` quarantines the slot, re-plans
  onto a surviving device via the standing degradation plans
  (:func:`~repro.runtime.plan.survivor_plan`), and rebuilds the
  slot's session on its own worker thread while the lane's other slots
  keep serving.  :meth:`ServingFrontend.restore_device` stages
  primary-plan rebuilds in the background; workers adopt them at the
  next batch boundary.
* **per-model circuit breakers**
  (:class:`~repro.serving.breaker.CircuitBreaker`, opt-in via
  ``ServingConfig(breaker=...)``) — persistent failures trip the lane
  open and :meth:`ServingFrontend.submit` rejects fast with
  :class:`~repro.errors.CircuitOpenError` until half-open probes succeed.
* **deadline-aware admission and shedding** — requests may carry a
  deadline; expired work is dropped at dequeue time with
  :class:`~repro.errors.DeadlineExceededError`, and the lane's
  :class:`~repro.serving.health.TenantAwareShedder` rejects at submit
  time (:class:`~repro.errors.LoadShedError`) when the observed queue
  delay makes a deadline unmeetable.

Every request — executed, expired, shed, or rejected — reaches its
terminal state in exactly one place, :meth:`_ModelLane._settle`, which
counts it per model and per tenant, times it, tells the breaker, the
shedder and the slot, and resolves the future.

Every stage feeds the :class:`~repro.serving.metrics.MetricsRegistry`:
queue depth/wait, batch sizes and modes, request latencies and outcomes,
shed/expiry counts, breaker and slot-health state, per-device busy time
via :class:`~repro.runtime.core.MetricsMiddleware`, and retry/fault
counters when a retry policy is installed.

``REPRO_VALIDATE=1`` (or ``ServingConfig(validate=True)``) applies the
same invariant middleware a solo session would use on the per-request
paths; the stacked path — whose intermediate shapes legitimately differ
from the declared types — instead validates each request's *split*
outputs against the declared output types.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DeviceLostError,
    ExecutionError,
    LoadShedError,
    QueueFullError,
    ReproError,
)
from repro.runtime.core import (
    DispatchKernel,
    MetricsMiddleware,
    Middleware,
    PhaseCheckpoint,
    RetryMiddleware,
    RetryPolicy,
    plan_worker_devices,
)
from repro.runtime.plan import HeteroPlan, survivor_plan
from repro.serving.batcher import (
    BatchConfig,
    analyze_stack_safety,
    collect_batch,
    request_signature,
    run_stacked,
)
from repro.serving.breaker import (
    BREAKER_CLOSED,
    BREAKER_STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.serving.health import (
    SLOT_HEALTHY,
    SLOT_STATE_CODES,
    LaneHealth,
    SlotHealth,
    TenantAwareShedder,
)
from repro.serving.metrics import BATCH_SIZE_BUCKETS, MetricsRegistry
from repro.serving.tenants import DEFAULT_TENANT, TenantConfig, TenantRegistry
from repro.serving.wfq import WFQAdmissionQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import DuetEngine, DuetOptimization
    from repro.ir.graph import Graph
    from repro.runtime.faults import FaultInjector

__all__ = ["ServingConfig", "ServeResult", "ServeFuture", "ServingFrontend"]

#: Queue sentinel telling a lane worker to exit.
_SHUTDOWN = object()

_RETRY_COUNTER_KEYS = ("faults", "retries", "giveups")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving frontend.

    Attributes:
        queue_capacity: bound of each model's admission queue.
        admission: ``"block"`` makes :meth:`ServingFrontend.submit` wait
            for queue space (up to ``submit_timeout_s``); ``"reject"``
            raises :class:`~repro.errors.QueueFullError` immediately.
        submit_timeout_s: blocking-admission patience; ``None`` blocks
            indefinitely.  Expiry raises ``QueueFullError`` too.
        pool_size: worker threads (each with its own session) per model.
            Keep this at 1 when batching a stack-safe model: concurrent
            workers steal each other's window fill and linger to no
            benefit (measured — multi-worker lingering *loses* throughput
            on small models).  Other models open no window, so the
            advice does not apply to them.
        batching: coalesce compatible queued requests into one stacked
            dispatch.  Acts only where the worker's plan passed
            :func:`~repro.serving.batcher.analyze_stack_safety`; a worker
            whose plan did not runs each request as it dequeues it.
        max_batch_size: hard cap on requests per batch (stack-safe
            plans only).
        max_linger_s: longest a window's first request waits for company
            (stack-safe plans only; a critical-tier head never waits).
        retry_policy: optional
            :class:`~repro.runtime.core.RetryPolicy` installing the
            retry middleware around every task attempt.
        validate: install invariant validation; ``None`` honors the
            ``REPRO_VALIDATE`` environment variable via the engine.
        validate_transfers: guard cross-device tensors against
            non-finite corruption (retryable under ``retry_policy``).
        seed: seeds the retry backoff-jitter generators.
        default_deadline_s: deadline applied to requests submitted
            without one; ``None`` means requests carry no deadline unless
            the caller passes ``deadline_s`` explicitly.
        shedding: enable the adaptive shedder — deadlined requests are
            rejected at submit with :class:`~repro.errors.LoadShedError`
            when observed queue delay predicts the deadline unmeetable.
            Only acts on requests that carry a deadline.
        breaker: per-model circuit-breaker thresholds
            (:class:`~repro.serving.breaker.BreakerConfig`); ``None``
            disables breakers entirely.
        tenants: the :class:`~repro.serving.tenants.TenantRegistry`
            governing per-tenant priority classes, WFQ weights, SLO
            targets, and default deadlines.  ``None`` leaves every
            request on the anonymous standard-class default tenant
            (single-flow FIFO).
    """

    queue_capacity: int = 64
    admission: str = "block"
    submit_timeout_s: float | None = None
    pool_size: int = 1
    batching: bool = True
    max_batch_size: int = 8
    max_linger_s: float = 2e-3
    retry_policy: "RetryPolicy | None" = None
    validate: bool | None = None
    validate_transfers: bool = False
    seed: int = 0
    default_deadline_s: float | None = None
    shedding: bool = True
    breaker: BreakerConfig | None = None
    tenants: TenantRegistry | None = None

    def __post_init__(self) -> None:
        if self.admission not in ("block", "reject"):
            raise ExecutionError(
                f'admission must be "block" or "reject", got {self.admission!r}'
            )
        if self.queue_capacity < 1:
            raise ExecutionError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.pool_size < 1:
            raise ExecutionError(
                f"pool_size must be >= 1, got {self.pool_size}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ExecutionError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )
        # Delegates batch-knob validation.
        self.batch_config()

    def batch_config(self) -> BatchConfig:
        """The window-collection knobs as a :class:`BatchConfig`."""
        return BatchConfig(
            max_batch_size=self.max_batch_size, max_linger_s=self.max_linger_s
        )


@dataclass
class ServeResult:
    """Outcome of one served request.

    Attributes:
        outputs: model outputs, owned by the caller.
        model: lane (model name) that served the request.
        queue_wait_s: admission-to-dequeue wait.
        batch_size: number of requests in the batch this one rode in.
        stacked: True when the batch executed as one stacked dispatch.
        wall_time_s: execution wall time of that batch.
    """

    outputs: list[np.ndarray]
    model: str
    queue_wait_s: float
    batch_size: int
    stacked: bool
    wall_time_s: float


class ServeFuture:
    """Handle to an admitted request; resolves when its batch executes.

    Attributes:
        deadline_s: the request's end-to-end budget (``None`` = no
            deadline).  Work still queued past its deadline is dropped at
            dequeue time and the future fails with
            :class:`~repro.errors.DeadlineExceededError`.
        tenant: the :class:`~repro.serving.tenants.TenantConfig` the
            request was admitted under (the anonymous standard-class
            default unless the submitter named one).
        preemptions: how many times this request's execution was
            suspended at a phase boundary for higher-priority work.
    """

    def __init__(
        self,
        model: str,
        inputs: Mapping[str, np.ndarray],
        deadline_s: float | None = None,
        clock: Callable[[], float] | None = None,
        tenant: TenantConfig = DEFAULT_TENANT,
    ):
        self.model = model
        self.inputs = {k: np.asarray(v) for k, v in inputs.items()}
        self.signature = request_signature(self.inputs)
        self.deadline_s = deadline_s
        self.tenant = tenant
        self.preemptions = 0
        self.enqueued_at = 0.0
        self.dequeued_at = 0.0
        self.expires_at = float("inf")
        self._clock = clock or time.perf_counter
        self._event = threading.Event()
        self._result: ServeResult | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the request has completed (successfully or not)."""
        return self._event.is_set()

    def result(self, timeout_s: float | None = None) -> ServeResult:
        """Block until the request completes; re-raises its failure.

        Raises :class:`~repro.errors.DeadlineExceededError` when
        ``timeout_s`` expires before the request resolves.
        """
        if not self._event.wait(timeout_s):
            context = ""
            if self.enqueued_at:
                elapsed = max(0.0, self._clock() - self.enqueued_at)
                if self.dequeued_at:
                    queued = max(0.0, self.dequeued_at - self.enqueued_at)
                    context = (
                        f" ({elapsed:.4f}s since admission, "
                        f"{queued:.4f}s of it queued)"
                    )
                else:
                    context = (
                        f" ({elapsed:.4f}s since admission, still queued)"
                    )
            raise DeadlineExceededError(
                f"request to model {self.model!r} did not complete within "
                f"{timeout_s}s{context}"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _finish(self, result: ServeResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _WorkerSlot:
    """One lane worker's private execution state: its session, its
    optional stacked dispatch kernel, its health record, and its retry
    bookkeeping.

    The slot can be *rebuilt* onto a different plan: synchronously on its
    own worker thread after a device loss (onto the survivor's standing
    degradation plan), or via a staged replacement built on a background
    thread (back onto the primary plan after
    :meth:`ServingFrontend.restore_device`) that the worker adopts at the
    next batch boundary.
    """

    def __init__(
        self,
        lane: "_ModelLane",
        index: int,
        config: ServingConfig,
        registry: MetricsRegistry,
        clock: Callable[[], float],
        injector: "FaultInjector | None",
        validate: bool,
    ):
        self.lane = lane
        self.index = index
        self.config = config
        self.registry = registry
        self.clock = clock
        self.injector = injector
        self.validate = validate
        self.health = SlotHealth()
        self.retry_counters: dict[str, int] | None = None
        self.retry_events: deque = deque(maxlen=256)
        self._flushed = dict.fromkeys(_RETRY_COUNTER_KEYS, 0)
        if config.retry_policy is not None:
            self.retry_counters = dict.fromkeys(_RETRY_COUNTER_KEYS, 0)
        self._generation = 0
        self._replacement: tuple | None = None
        self.session, self.decision, self.stacked_kernel = self._components(
            lane.opt.plan
        )

    def _components(self, plan: "HeteroPlan"):
        """Build the session (and stacked kernel, when safe) for ``plan``."""
        from repro.runtime.session import EngineSession

        config, lane = self.config, self.lane
        generation = self._generation
        self._generation += 1
        middleware: list[Middleware] = []
        if config.retry_policy is not None:
            # Generation 0 reproduces the pre-rebuild jitter seeds exactly;
            # rebuilt sessions fold the generation in so their backoff
            # draws stay deterministic without replaying the first life's.
            key = (config.seed, self.index) if generation == 0 else (
                config.seed, self.index, generation
            )
            # Enumerating the plan's worker set keeps the (device, index)
            # seed pairs identical to the historical DEVICES pair on the
            # default machine while covering every mesh device.
            rngs = {
                dev: np.random.default_rng((*key, i))
                for i, dev in enumerate(plan_worker_devices(plan))
            }
            middleware.append(
                RetryMiddleware(
                    config.retry_policy,
                    self.retry_events,
                    self.retry_counters,
                    rngs,
                    self.clock,
                )
            )
        middleware.append(
            MetricsMiddleware(
                self.registry, labels={"model": lane.name}, clock=self.clock
            )
        )
        session = EngineSession(
            plan,
            validate=self.validate,
            opt=lane.opt,
            middleware=middleware,
            fault_injector=self.injector,
            validate_transfers=config.validate_transfers,
        )
        decision = (
            lane.decision
            if plan is lane.opt.plan
            else analyze_stack_safety(plan)
        )
        stacked_kernel: DispatchKernel | None = None
        if config.batching and decision.stackable:
            # No arena: stacked shapes vary with batch size and would
            # thrash the per-slot buffers; no invariant middleware: the
            # lane validates the *split* outputs instead.
            stacked_kernel = DispatchKernel(
                plan,
                middleware=middleware,
                fault_injector=self.injector,
                validate_transfers=config.validate_transfers,
            )
        return session, decision, stacked_kernel

    def rebuild_degraded(self, plan: "HeteroPlan", device: str) -> None:
        """Rebuild onto a surviving device's degradation plan (called on
        this slot's own worker thread; other slots keep serving)."""
        self.session, self.decision, self.stacked_kernel = self._components(
            plan
        )
        self.health.mark_degraded(device)

    def build_replacement(self) -> None:
        """Build primary-plan components off-thread and stage them; the
        worker adopts at its next batch boundary."""
        self._replacement = self._components(self.lane.opt.plan)

    def adopt_replacement(self) -> bool:
        """Swap in a staged replacement (worker thread only)."""
        staged = self._replacement
        if staged is None:
            return False
        self._replacement = None
        self.session, self.decision, self.stacked_kernel = staged
        self.health.mark_healthy()
        return True

    def flush_retry_counters(self, lane: "_ModelLane") -> None:
        """Publish retry-middleware counter deltas into the registry."""
        if self.retry_counters is None:
            return
        for key in _RETRY_COUNTER_KEYS:
            delta = self.retry_counters[key] - self._flushed[key]
            if delta:
                lane.retry_metrics[key].inc(delta, model=lane.name)
                self._flushed[key] = self.retry_counters[key]


class _ModelLane:
    """One model's serving lane: queue, workers, metrics, stack decision,
    and the resilience trio (slot health, circuit breaker, shedder)."""

    def __init__(
        self,
        name: str,
        opt: "DuetOptimization",
        config: ServingConfig,
        registry: MetricsRegistry,
        clock: Callable[[], float],
        injector: "FaultInjector | None",
        validate: bool,
    ):
        self.name = name
        self.opt = opt
        self.config = config
        self.registry = registry
        self.clock = clock
        self.validate = validate
        self.tenants = config.tenants or TenantRegistry()
        self.queue = WFQAdmissionQueue(
            config.queue_capacity, classify=self._classify
        )
        self.batch_config = config.batch_config()
        # Critical-tier heads never linger: latency beats batching for
        # the top class (already-waiting compatible work still coalesces).
        self.critical_batch_config = BatchConfig(
            max_batch_size=config.max_batch_size, max_linger_s=0.0
        )
        self.decision = analyze_stack_safety(opt.plan)
        self.expected_outputs = self._declared_output_types(opt.plan)
        self.health = LaneHealth()
        # The LatencyOracle-derived end-to-end estimate seeds the
        # shedder's service prior so cold-start predictions are anchored.
        self.shedder = (
            TenantAwareShedder(service_prior_s=max(0.0, opt.latency))
            if config.shedding
            else None
        )

        self.requests_total = registry.counter(
            "duet_requests_total",
            help=(
                "Requests by model and outcome "
                "(ok/error/rejected/shed/expired)."
            ),
        )
        self.batches_total = registry.counter(
            "duet_batches_total",
            help=(
                "Executed batches by model and mode (stacked/fallback/"
                "single; fallback = a stacked run raised and its "
                "requests re-ran one by one)."
            ),
        )
        self.shed_total = registry.counter(
            "duet_shed_total",
            help=(
                "Requests refused or dropped unexecuted, by model and "
                "reason (breaker_open/unmeetable/expired)."
            ),
        )
        self.queue_depth = registry.gauge(
            "duet_queue_depth", help="Requests waiting in the admission queue."
        )
        self.inflight = registry.gauge(
            "duet_inflight_requests", help="Requests currently executing."
        )
        self.queue_wait = registry.histogram(
            "duet_queue_wait_seconds",
            help="Admission-to-dequeue wait per request.",
        )
        self.latency = registry.histogram(
            "duet_request_latency_seconds",
            help="Admission-to-completion latency per request.",
        )
        self.batch_size = registry.histogram(
            "duet_batch_size",
            buckets=BATCH_SIZE_BUCKETS,
            help="Requests coalesced per executed batch.",
        )
        self.breaker_state = registry.gauge(
            "duet_breaker_state",
            help="Circuit-breaker state (0=closed, 1=half_open, 2=open).",
        )
        self.breaker_transitions = registry.counter(
            "duet_breaker_transitions_total",
            help="Circuit-breaker state transitions by model.",
        )
        self.slot_state = registry.gauge(
            "duet_slot_state",
            help="Worker-slot health (0=healthy, 1=quarantined, 2=degraded).",
        )
        self.slot_failstreak = registry.gauge(
            "duet_slot_consecutive_failures",
            help="Consecutive request failures per worker slot.",
        )
        self.slot_quarantines = registry.counter(
            "duet_slot_quarantines_total",
            help="Worker slots quarantined after device loss.",
        )
        self.slot_rebuilds = registry.counter(
            "duet_slot_rebuilds_total",
            help="Slot session rebuilds by kind (degraded/restored).",
        )
        self.tenant_queue_delay = registry.histogram(
            "duet_tenant_queue_delay_seconds",
            help="Admission-to-dequeue wait per request, by tenant.",
        )
        self.tenant_latency = registry.histogram(
            "duet_tenant_request_latency_seconds",
            help="Admission-to-completion latency per request, by tenant.",
        )
        self.tenant_requests = registry.counter(
            "duet_tenant_requests_total",
            help="Requests by model, tenant, and outcome.",
        )
        self.tenant_slo_miss = registry.counter(
            "duet_tenant_slo_miss_total",
            help=(
                "Requests that missed their tenant's p99 SLO target "
                "(completed late, expired, or shed)."
            ),
        )
        self.tenant_preemptions = registry.counter(
            "duet_tenant_preemptions_total",
            help=(
                "Executions suspended at a phase boundary for "
                "higher-priority work, by preempted tenant."
            ),
        )
        self.retry_metrics = {
            "faults": registry.counter(
                "duet_faults_total", help="Transient task faults observed."
            ),
            "retries": registry.counter(
                "duet_retries_total", help="Task attempts retried."
            ),
            "giveups": registry.counter(
                "duet_giveups_total", help="Tasks that exhausted their retries."
            ),
        }

        self.breaker: CircuitBreaker | None = None
        if config.breaker is not None:
            self.breaker = CircuitBreaker(
                config.breaker,
                clock=clock,
                listener=self._on_breaker_transition,
            )
            self.breaker_state.set(
                BREAKER_STATE_CODES[BREAKER_CLOSED], model=name
            )

        self.slots = [
            _WorkerSlot(self, i, config, registry, clock, injector, validate)
            for i in range(config.pool_size)
        ]
        for slot in self.slots:
            self._publish_slot_state(slot)
        self.threads: list[threading.Thread] = []

    @staticmethod
    def _declared_output_types(plan) -> list[tuple[tuple, np.dtype]]:
        by_id = {task.task_id: task for task in plan.tasks}
        declared = []
        for tid, idx in plan.outputs:
            task = by_id[tid]
            node = task.module.graph.node(task.module.output_ids[idx])
            declared.append(
                (tuple(node.ty.shape), np.dtype(node.ty.dtype.to_numpy()))
            )
        return declared

    # ------------------------------------------------------------------
    # Resilience bookkeeping

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.breaker_transitions.inc(
            1, model=self.name, from_state=old, to_state=new
        )
        self.breaker_state.set(BREAKER_STATE_CODES[new], model=self.name)

    def _publish_slot_state(self, slot: _WorkerSlot) -> None:
        self.slot_state.set(
            SLOT_STATE_CODES[slot.health.state],
            model=self.name,
            slot=str(slot.index),
        )

    def _handle_device_loss(
        self, slot: _WorkerSlot, exc: DeviceLostError
    ) -> bool:
        """Quarantine ``slot`` and rebuild it onto a survivor's standing
        degradation plan.  Returns True when the slot was rebuilt (the
        caller retries the failed request once on the new session)."""
        self.health.mark_lost(exc.device)
        pick = survivor_plan(self.opt.degradation_plans, self.health.lost_devices)
        if pick is None:
            # Nothing to fail over to: no survivor has a standing plan.
            return False
        device, plan = pick
        slot.health.quarantine()
        self.slot_quarantines.inc(1, model=self.name)
        self._publish_slot_state(slot)
        slot.rebuild_degraded(plan, device)
        self.slot_rebuilds.inc(1, model=self.name, kind="degraded")
        self._publish_slot_state(slot)
        return True

    def restore(self, device: str) -> bool:
        """Mark ``device`` healthy again and stage background rebuilds of
        every non-healthy slot back onto the primary plan.  Returns True
        when any rebuild was staged."""
        self.health.revive(device)
        if self.health.lost_devices:
            # The primary plan still touches a lost device; stay degraded.
            return False
        staged = False
        for slot in self.slots:
            if slot.health.state != SLOT_HEALTHY:
                threading.Thread(
                    target=slot.build_replacement,
                    name=f"duet-rebuild-{self.name}-{slot.index}",
                    daemon=True,
                ).start()
                staged = True
        return staged

    # ------------------------------------------------------------------
    # Worker side

    def start(self) -> None:
        for i in range(self.config.pool_size):
            t = threading.Thread(
                target=self._worker,
                args=(self.slots[i],),
                name=f"duet-serve-{self.name}-{i}",
                daemon=True,
            )
            self.threads.append(t)
            t.start()

    def shutdown(self) -> None:
        for _ in self.threads:
            self.queue.put(_SHUTDOWN)
        for t in self.threads:
            t.join()
        self.threads.clear()
        # The final in-flight batch's retry counters would otherwise be
        # lost: the flush normally rides the worker loop, which has exited.
        for slot in self.slots:
            slot.flush_retry_counters(self)
        # Requests that raced admission against close() and landed behind
        # the sentinels would hang their futures forever; fail them now.
        while True:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                continue
            self._settle(
                item,
                "rejected",
                error=ExecutionError(
                    f"serving frontend closed before the request to model "
                    f"{self.name!r} executed"
                ),
            )
        self.queue_depth.set(0, model=self.name)

    @staticmethod
    def _classify(item):
        """WFQ classifier: shutdown sentinels ride the control channel."""
        if item is _SHUTDOWN:
            return None
        tenant = item.tenant
        return (tenant.tier, tenant.name, tenant.weight)

    def _timed_get(self, timeout_s: float):
        """Batcher-facing queue pull; ``timeout_s <= 0`` never blocks."""
        if timeout_s <= 0:
            item = self.queue.get_nowait()
        else:
            item = self.queue.get(timeout=timeout_s)
        if item is not _SHUTDOWN:
            item.dequeued_at = self.clock()
        return item

    def _compatible(self, head, item) -> bool:
        # Same-tier only: a batch has one priority, so higher-priority
        # work is never held behind (or preempted by) its own batch.
        return (
            item is not _SHUTDOWN
            and item.signature == head.signature
            and item.tenant.tier == head.tenant.tier
        )

    def _expired(self, item) -> bool:
        return item is not _SHUTDOWN and self.clock() >= item.expires_at

    def _settle(
        self,
        who: "ServeFuture | TenantConfig",
        outcome: str,
        wait: float | None = None,
        sojourn: float | None = None,
        *,
        result: ServeResult | None = None,
        error: BaseException | None = None,
        reason: str | None = None,
        slot: _WorkerSlot | None = None,
    ) -> None:
        """The one place a request reaches its terminal state.

        ``who`` is the admitted request, or just its tenant when
        :meth:`ServingFrontend.submit` refuses it before a future exists
        (the caller then raises; a half-open probe slot such a refusal
        reserved is handed back by ``submit`` itself).  ``outcome`` is
        the ``duet_requests_total`` label (ok/error/expired/shed/
        rejected) and ``reason`` the ``duet_shed_total`` one for work
        dropped unexecuted.  ``wait`` and ``sojourn`` are observed when
        known; ``slot`` is the worker slot that executed the request.
        """
        req = who if isinstance(who, ServeFuture) else None
        tenant = who.tenant if req is not None else who
        name, tname = self.name, tenant.name
        self.requests_total.inc(1, model=name, outcome=outcome)
        self.tenant_requests.inc(1, model=name, tenant=tname, outcome=outcome)
        if reason is not None:
            self.shed_total.inc(1, model=name, reason=reason)
        if wait is not None:
            self.queue_wait.observe(wait, model=name)
            self.tenant_queue_delay.observe(wait, model=name, tenant=tname)
        if sojourn is not None:
            if outcome in ("ok", "error"):  # latency is of executed work
                self.latency.observe(sojourn, model=name)
                self.tenant_latency.observe(sojourn, model=name, tenant=tname)
            slo = tenant.slo_p99_s
            if slo is not None and sojourn > slo:
                self.tenant_slo_miss.inc(1, model=name, tenant=tname)
        if slot is not None:
            if outcome == "ok":
                if slot.health.consecutive_failures:
                    self.slot_failstreak.set(
                        0, model=name, slot=str(slot.index)
                    )
                slot.health.record_success()
            else:
                self.slot_failstreak.set(
                    slot.health.record_failure(),
                    model=name,
                    slot=str(slot.index),
                )
        if self.shedder is not None and outcome in ("ok", "expired"):
            # An expiry is hard evidence of congestion too: the request's
            # sojourn was at least its full wait.
            self.shedder.observe(wait, sojourn, tenant=tname)
        if req is None:
            return
        if self.breaker is not None:
            if outcome == "ok":
                self.breaker.record_success()
            elif outcome == "error":
                self.breaker.record_failure()
            else:
                self.breaker.record_discard()
        if error is not None:
            req._fail(error)
        else:
            req._finish(result)

    def _expire(self, req: ServeFuture) -> None:
        """Fail a request whose deadline passed while it sat queued."""
        waited = max(0.0, self.clock() - req.enqueued_at)
        self._settle(
            req,
            "expired",
            waited,
            waited,
            reason="expired",
            error=DeadlineExceededError(
                f"request to model {self.name!r} expired in queue: waited "
                f"{waited:.4f}s of a {req.deadline_s:.4f}s deadline"
            ),
        )

    def _worker(self, slot: _WorkerSlot) -> None:
        carry = None
        while True:
            if slot.adopt_replacement():
                self.slot_rebuilds.inc(1, model=self.name, kind="restored")
                self._publish_slot_state(slot)
            head = carry if carry is not None else self.queue.get()
            carry = None
            if head is _SHUTDOWN:
                return
            head.dequeued_at = self.clock()
            if self._expired(head):
                self._expire(head)
                continue
            if slot.stacked_kernel is not None:
                # A window's linger buys something only where the batch
                # executes as one stacked dispatch; every other slot
                # dispatches each request the moment it is dequeued.
                batch, carry = collect_batch(
                    head,
                    self._timed_get,
                    self.clock,
                    (
                        self.critical_batch_config
                        if head.tenant.tier == 0
                        else self.batch_config
                    ),
                    self._compatible,
                    drop=self._expired,
                    on_drop=self._expire,
                )
            else:
                batch = [head]
            if carry is _SHUTDOWN:
                # Put the sentinel back: another worker (or this one, on
                # the next loop) must still see it; the current batch
                # executes first either way.
                self.queue.put(_SHUTDOWN)
                carry = None
            self.queue_depth.set(self.queue.qsize(), model=self.name)
            self._execute(slot, batch)

    def _execute(self, slot: _WorkerSlot, batch: list[ServeFuture]) -> None:
        """Run one batch and settle every request in it."""
        self.inflight.inc(len(batch), model=self.name)
        try:
            self._run_batch(slot, batch)
        except BaseException as exc:
            # The zero-hung-futures invariant outranks everything: no
            # matter what broke, every admitted request must reach a
            # terminal state.
            for req in batch:
                if not req.done():
                    self._settle(
                        req,
                        "error",
                        error=ExecutionError(
                            f"serving worker failed while executing a "
                            f"batch for model {self.name!r}: {exc!r}"
                        ),
                    )
        finally:
            self.inflight.dec(len(batch), model=self.name)

    def _run_batch(self, slot: _WorkerSlot, batch: list[ServeFuture]) -> None:
        """Execute ``batch`` and settle each request with its own outcome.

        A batch of several requests exists only on a slot with a stacked
        kernel (the only place :meth:`_worker` opens a window) and runs
        as one stacked dispatch; a singleton runs on the slot's session.
        The per-request loop over several members (``mode="fallback"``)
        is reached only when that stacked run raised.
        """
        began = self.clock()
        mode = "single" if len(batch) == 1 else "fallback"
        outputs: list[list[np.ndarray] | None] = [None] * len(batch)
        errors: list[BaseException | None] = [None] * len(batch)
        stacked = False
        if len(batch) > 1:
            try:
                outputs = self._run_stacked_checked(slot, batch)
                stacked, mode = True, "stacked"
            except ReproError:
                # Conservative recovery: anything the stacked path
                # cannot serve exactly (give-ups and device loss
                # included) re-runs per request, where failures
                # attribute to individual requests.
                outputs = [None] * len(batch)
        if not stacked:
            for i, req in enumerate(batch):
                if i and req.tenant.tier > 0:
                    # Between the members of a failed stacked batch is
                    # a natural preemption point too: serve any
                    # higher-priority arrivals before the next re-run.
                    self._serve_preempting(slot, req.tenant.tier)
                try:
                    outputs[i] = self._run_request(slot, req)
                except DeviceLostError as exc:
                    if self._handle_device_loss(slot, exc):
                        # The slot now serves from the survivor's
                        # degradation plan; retry this request once
                        # (from scratch — any suspended frontier
                        # belonged to the lost session).
                        try:
                            outputs[i] = self._run_request(slot, req)
                        except ReproError as retry_exc:
                            errors[i] = retry_exc
                    else:
                        errors[i] = exc
                except ReproError as exc:
                    errors[i] = exc
        wall = self.clock() - began
        now = self.clock()
        self.batch_size.observe(len(batch), model=self.name)
        self.batches_total.inc(1, model=self.name, mode=mode)
        slot.flush_retry_counters(self)
        for i, req in enumerate(batch):
            wait = max(0.0, req.dequeued_at - req.enqueued_at)
            sojourn = max(0.0, now - req.enqueued_at)
            if errors[i] is not None:
                self._settle(
                    req, "error", wait, sojourn, error=errors[i], slot=slot
                )
            else:
                self._settle(
                    req,
                    "ok",
                    wait,
                    sojourn,
                    result=ServeResult(
                        outputs=outputs[i],
                        model=self.name,
                        queue_wait_s=wait,
                        batch_size=len(batch),
                        stacked=stacked,
                        wall_time_s=wall,
                    ),
                    slot=slot,
                )

    # ------------------------------------------------------------------
    # Phase-boundary preemption

    def _run_yielding(self, slot: _WorkerSlot, reqs, run, feeds):
        """Drive one dispatch of ``feeds`` for ``reqs`` to completion.

        ``run`` is the slot session's ``run`` (one request) or the
        stacked kernel's (a whole same-tier batch); both take the same
        ``should_preempt`` / ``checkpoint`` arguments.  Work below tier 0
        passes a predicate, so it suspends at a plan phase boundary when
        a strictly higher tier is waiting, the arrivals are served on
        this slot, and the dispatch resumes from its checkpointed
        frontier bit-identically.  Tier 0 has nobody above it: it passes
        no predicate and the same walk never suspends.
        """
        tier = reqs[0].tenant.tier
        should_preempt = (
            (lambda: self.queue.has_higher_tier(tier)) if tier > 0 else None
        )
        outcome = run(feeds, should_preempt=should_preempt)
        while isinstance(outcome, PhaseCheckpoint):
            for req in reqs:
                req.preemptions += 1
                self.tenant_preemptions.inc(
                    1, model=self.name, tenant=req.tenant.name
                )
            self._serve_preempting(slot, tier)
            outcome = run(should_preempt=should_preempt, checkpoint=outcome)
        return outcome.outputs

    def _run_request(self, slot: _WorkerSlot, req: ServeFuture):
        """One request on the slot's session."""
        return self._run_yielding(slot, [req], slot.session.run, req.inputs)

    def _serve_preempting(self, slot: _WorkerSlot, tier: int) -> None:
        """Drain and execute every request waiting above ``tier``.

        Called while a lower-priority request sits suspended at a phase
        boundary (its frontier is checkpointed off the arena, so these
        executions cannot perturb it).  Preemptors skip the batching
        window — the point is latency — and run as singleton batches
        with full accounting; a standard-class preemptor may itself be
        preempted by a critical arrival (recursion is bounded by the
        number of tiers).
        """
        while True:
            try:
                vip = self.queue.get_preempting_nowait(tier)
            except queue.Empty:
                return
            vip.dequeued_at = self.clock()
            self.queue_depth.set(self.queue.qsize(), model=self.name)
            if self._expired(vip):
                self._expire(vip)
            else:
                self._execute(slot, [vip])

    def _run_stacked_checked(
        self, slot: _WorkerSlot, batch: list[ServeFuture]
    ) -> list[list[np.ndarray]]:
        # Bound once: a preemptor's device loss may rebuild the slot while
        # this batch is suspended, and a checkpoint resumes only on the
        # kernel that produced it.
        run = slot.stacked_kernel.run
        per_request = run_stacked(
            lambda feeds: self._run_yielding(slot, batch, run, feeds),
            [req.inputs for req in batch],
            slot.decision.batch,
        )
        if self.validate:
            for outs in per_request:
                for value, (shape, dtype) in zip(outs, self.expected_outputs):
                    if tuple(value.shape) != shape or value.dtype != dtype:
                        raise ExecutionError(
                            f"stacked output {tuple(value.shape)}/"
                            f"{value.dtype} does not match declared "
                            f"{shape}/{dtype}"
                        )
        return per_request


class ServingFrontend:
    """Multi-tenant serving over a set of optimized models.

    Typical use::

        engine = DuetEngine()
        with engine.serve({"m": graph}) as frontend:
            result = frontend.request({"x": x})       # blocking
            fut = frontend.submit({"x": x})           # async handle
            ...
            print(frontend.render_metrics())

    Args:
        engine: the optimizing engine; graphs in ``models`` are optimized
            through it exactly once, at construction.
        models: model name -> :class:`~repro.ir.graph.Graph` or prebuilt
            :class:`~repro.core.engine.DuetOptimization`.
        config: serving knobs; defaults to :class:`ServingConfig`.
        registry: metrics destination; a fresh
            :class:`~repro.serving.metrics.MetricsRegistry` by default.
        clock: monotonic-seconds source for every queue-wait, linger,
            latency, and busy-time measurement (injectable so tests can
            pin timing-derived metrics exactly).
        fault_injectors: optional model name ->
            :class:`~repro.runtime.faults.FaultInjector` chaos hooks
            (shared across that model's workers; plain injectors are not
            thread-safe, so use ``pool_size=1`` with them — the
            :class:`~repro.runtime.faults.ScriptedChaosInjector` is
            thread-safe and supports any pool size).
        autostart: start worker threads immediately.  Pass ``False`` to
            pre-fill queues deterministically, then call :meth:`start`.
    """

    def __init__(
        self,
        engine: "DuetEngine",
        models: Mapping[str, "Graph | DuetOptimization"],
        config: ServingConfig | None = None,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] | None = None,
        fault_injectors: Mapping[str, "FaultInjector"] | None = None,
        autostart: bool = True,
    ):
        from repro.core.engine import DuetOptimization

        if not models:
            raise ExecutionError("ServingFrontend needs at least one model")
        self.engine = engine
        self.config = config or ServingConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = clock or time.perf_counter
        validate = (
            self.config.validate
            if self.config.validate is not None
            else engine._should_validate()
        )
        injectors = dict(fault_injectors or {})
        self._lanes: dict[str, _ModelLane] = {}
        for name, model in models.items():
            opt = (
                model
                if isinstance(model, DuetOptimization)
                else engine.optimize(model)
            )
            self._lanes[name] = _ModelLane(
                name,
                opt,
                self.config,
                self.registry,
                self.clock,
                injectors.get(name),
                validate,
            )
        self._started = False
        self._closed = False
        if autostart:
            self.start()

    # ------------------------------------------------------------------

    @property
    def models(self) -> tuple[str, ...]:
        """The served model names."""
        return tuple(self._lanes)

    def lane_info(self, model: str | None = None) -> dict:
        """Introspection: stacking decision, pool shape, and health."""
        lane = self._lane(model)
        return {
            "model": lane.name,
            "stackable": lane.decision.stackable,
            "stack_reason": lane.decision.reason,
            "pool_size": self.config.pool_size,
            "queue_capacity": self.config.queue_capacity,
            "breaker_state": (
                lane.breaker.state if lane.breaker is not None else None
            ),
            "tenants": lane.tenants.names,
            "lost_devices": sorted(lane.health.lost_devices),
            "slot_states": [slot.health.state for slot in lane.slots],
        }

    def _lane(self, model: str | None) -> _ModelLane:
        if model is None:
            if len(self._lanes) != 1:
                raise ExecutionError(
                    "model name required when serving several models: "
                    + ", ".join(self._lanes)
                )
            return next(iter(self._lanes.values()))
        lane = self._lanes.get(model)
        if lane is None:
            raise ExecutionError(
                f"unknown model {model!r}; serving: " + ", ".join(self._lanes)
            )
        return lane

    def start(self) -> None:
        """Start every lane's worker threads (idempotent)."""
        if self._started or self._closed:
            return
        self._started = True
        for lane in self._lanes.values():
            lane.start()

    def close(self) -> None:
        """Drain queued requests, stop the workers, and refuse new work."""
        if self._closed:
            return
        self._closed = True
        # Even when the workers never started, queued futures must not be
        # left hanging: shutdown() drains and fails whatever is waiting.
        for lane in self._lanes.values():
            lane.shutdown()

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def restore_device(self, device: str, model: str | None = None) -> bool:
        """Declare a previously lost device healthy again.

        Call this after the fault source recovers (in chaos runs, after
        ``injector.revive_device(...)`` — the frontend never touches the
        injector itself).  Each affected lane forgets the loss and stages
        a *background* rebuild of every degraded slot back onto the
        primary plan; worker threads adopt the fresh sessions at their
        next batch boundary, so serving never pauses.  Returns True when
        any rebuild was staged.
        """
        lanes = (
            [self._lane(model)] if model is not None else self._lanes.values()
        )
        staged = False
        for lane in lanes:
            staged = lane.restore(device) or staged
        return staged

    def submit(
        self,
        inputs: Mapping[str, np.ndarray],
        model: str | None = None,
        deadline_s: float | None = None,
        tenant: str | None = None,
    ) -> ServeFuture:
        """Admit one request; returns a :class:`ServeFuture`.

        Args:
            inputs: the request's input tensors.
            model: lane name (optional when serving a single model).
            deadline_s: end-to-end budget for this request, from
                admission; defaults to the tenant's
                ``default_deadline_s``, then ``config.default_deadline_s``.
                Deadlined work still queued past its deadline is dropped
                at dequeue and fails with
                :class:`~repro.errors.DeadlineExceededError`.
            tenant: tenant name resolving through the configured
                :class:`~repro.serving.tenants.TenantRegistry`; ``None``
                is the anonymous standard-class default.  The tenant
                decides the request's strict-priority tier, WFQ weight,
                SLO accounting, and default deadline.

        Raises:
            ~repro.errors.QueueFullError: the lane's queue is full under
                ``admission="reject"``, or a blocking admission's
                ``submit_timeout_s`` expired.
            ~repro.errors.CircuitOpenError: the lane's breaker is open.
            ~repro.errors.LoadShedError: the adaptive shedder predicts
                the deadline unmeetable.
        """
        if self._closed:
            raise ExecutionError("serving frontend is closed")
        lane = self._lane(model)
        tenant_cfg = lane.tenants.resolve(tenant)
        if deadline_s is None:
            deadline_s = tenant_cfg.default_deadline_s
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        if deadline_s is not None and deadline_s <= 0:
            raise ExecutionError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        if lane.breaker is not None and not lane.breaker.allow():
            lane._settle(tenant_cfg, "shed", reason="breaker_open")
            raise CircuitOpenError(lane.name, lane.breaker.retry_after_s())
        try:
            if deadline_s is not None and lane.shedder is not None:
                predicted = lane.shedder.unmeetable(
                    deadline_s,
                    tenant=tenant_cfg.name,
                    backlog_ahead=lane.queue.backlog_ahead(tenant_cfg.tier),
                )
                if predicted is not None:
                    # Shed deadlined work never completes — an infinite
                    # sojourn, hence an SLO miss for a tenant with a target.
                    lane._settle(
                        tenant_cfg,
                        "shed",
                        sojourn=float("inf"),
                        reason="unmeetable",
                    )
                    raise LoadShedError(lane.name, deadline_s, predicted)
            req = ServeFuture(
                lane.name,
                inputs,
                deadline_s=deadline_s,
                clock=self.clock,
                tenant=tenant_cfg,
            )
            req.enqueued_at = self.clock()
            if deadline_s is not None:
                req.expires_at = req.enqueued_at + deadline_s
            try:
                if self.config.admission == "reject":
                    lane.queue.put_nowait(req)
                else:
                    lane.queue.put(req, timeout=self.config.submit_timeout_s)
            except queue.Full:
                lane._settle(tenant_cfg, "rejected")
                raise QueueFullError(
                    f"admission queue for model {lane.name!r} is full "
                    f"({self.config.queue_capacity} waiting)"
                ) from None
        except BaseException:
            # A half-open admission reserved a probe slot; the request
            # will never execute, so hand the slot back.
            if lane.breaker is not None:
                lane.breaker.record_discard()
            raise
        lane.queue_depth.set(lane.queue.qsize(), model=lane.name)
        return req

    def request(
        self,
        inputs: Mapping[str, np.ndarray],
        model: str | None = None,
        timeout_s: float | None = None,
        deadline_s: float | None = None,
        tenant: str | None = None,
    ) -> ServeResult:
        """Admit one request and block until its result."""
        return self.submit(
            inputs, model=model, deadline_s=deadline_s, tenant=tenant
        ).result(timeout_s)

    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Plain-data snapshot of every registered metric."""
        return self.registry.snapshot()

    def render_metrics(self) -> str:
        """Prometheus-style text exposition of the registry."""
        return self.registry.render()
