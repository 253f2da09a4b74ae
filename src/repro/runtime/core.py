"""Unified runtime core: one dispatch kernel behind every executor.

The paper's executor (§IV-D) is a single concept — device workers draining
a dependency-ordered task queue, with tensors crossing devices between
them.  This module implements that concept exactly once and lets every
public execution path be a thin parameterization of it:

* :class:`DispatchKernel` — the dispatch loop itself: task readiness
  tracking (:class:`DispatchState`), cross-device transfer resolution
  (:func:`resolve_feeds`), kernel execution (:func:`execute_kernels`),
  output collection, and shutdown/join bookkeeping.
* **Worker strategies** — :class:`ThreadedWorkers` runs one named daemon
  thread per device (``duet-worker-<device>``) with synchronization
  queues, exactly the paper's busy-loop workers; :class:`InlineWorkers`
  executes tasks sequentially on the calling thread in plan (priority)
  order — the strategy behind the simulator's numeric outputs and
  :class:`~repro.runtime.session.EngineSession`.
* **Policy middleware** — small objects wrapping one task *attempt*
  (``middleware(ctx, call_next)``), composed outermost-first:
  :class:`RetryMiddleware` (backoff + seeded jitter),
  :class:`TaskDeadlineMiddleware`, :class:`TracingMiddleware` (structured
  :class:`ExecutionEvent` stream), :class:`FaultInjectionMiddleware`
  (deterministic chaos hooks), :class:`TransferGuardMiddleware`
  (non-finite corruption detection on cross-device tensors), and
  :class:`InvariantMiddleware` (``REPRO_VALIDATE``-style output
  shape/dtype checks).
* **Failure policies** — :class:`AbortPolicy` reproduces the plain
  threaded executor's semantics (collect every worker failure, drain,
  raise); :class:`FailoverPolicy` reproduces the resilient executor's
  device-loss handling (migrate queued work to the survivor, or signal a
  restart on a standing degradation plan).

Every wall-clock run returns one record, :class:`CoreResult`.  The entry
points that remain each add one thing to :class:`DispatchKernel`:
:class:`~repro.runtime.threaded.ThreadedExecutor` (threaded workers,
abort on failure), :class:`~repro.runtime.resilient.ResilientExecutor`
(retry + failover, restart on a degradation plan, the recovery log),
:class:`~repro.runtime.session.EngineSession` (an arena, caller-owned
outputs) and :func:`~repro.runtime.simulator.simulate` (a virtual clock
beside the inline outputs).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    DeviceLostError,
    ExecutionError,
    InvariantViolation,
    TransferError,
)
from repro.runtime.plan import HeteroPlan, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guards for type hints
    from repro.runtime.faults import FaultInjector
    from repro.runtime.memory import TensorArena

__all__ = [
    "DEVICES",
    "plan_worker_devices",
    "ExecutionEvent",
    "TaskContext",
    "DispatchState",
    "CoreResult",
    "build_attempt_stack",
    "InlineWorkers",
    "ThreadedWorkers",
    "AbortPolicy",
    "FailoverPolicy",
    "RestartOnSurvivor",
    "RetryMiddleware",
    "TaskDeadlineMiddleware",
    "TracingMiddleware",
    "MetricsMiddleware",
    "FaultInjectionMiddleware",
    "TransferGuardMiddleware",
    "InvariantMiddleware",
    "DispatchKernel",
    "PhaseCheckpoint",
]

#: The default machine's device workers: any plan placed entirely on
#: these devices is dispatched across exactly this pair, preserving the
#: historical worker set (and thread names) even for single-device plans.
DEVICES = ("cpu", "gpu")


def plan_worker_devices(plan: HeteroPlan) -> tuple[str, ...]:
    """The worker device set a plan is dispatched across.

    Plans placed entirely on the default machine keep the canonical
    ``("cpu", "gpu")`` pair; mesh plans get one worker per device the
    plan actually uses, canonical devices first then the rest sorted.
    """
    devs = {t.device for t in plan.tasks}
    if devs <= set(DEVICES):
        return DEVICES
    known = tuple(d for d in DEVICES if d in devs)
    return known + tuple(sorted(devs - set(DEVICES)))


@dataclass(frozen=True)
class ExecutionEvent:
    """One entry of the structured runtime event log.

    Shared by the tracing middleware and the resilience event log.
    ``kind`` is one of ``"task-start"``, ``"task-finish"``,
    ``"task-error"`` (tracing); ``"fault"``, ``"backoff"``, ``"retry"``,
    ``"giveup"``, ``"task-deadline"`` (retry middleware); ``"deadline"``,
    ``"device-lost"``, ``"failover-migrate"``, ``"failover-restart"``
    (failover policy).
    """

    kind: str
    time_s: float
    task_id: str | None = None
    device: str | None = None
    attempt: int | None = None
    detail: str = ""


@dataclass
class TaskContext:
    """Mutable per-attempt context threaded through the middleware stack.

    Attributes:
        task: the task being executed.
        device: the worker actually executing it (may differ from
            ``task.device`` after a failover migration).
        attempt: 1-based attempt number (maintained by the retry
            middleware; 1 when no retry middleware is installed).
        feeds: resolved input tensors (set by the resolve stage).
        crossed: input ids whose tensors crossed devices this attempt.
        env: the kernel value environment after execution.
    """

    task: TaskSpec
    device: str
    attempt: int = 1
    feeds: dict[str, np.ndarray] | None = None
    crossed: set[str] = field(default_factory=set)
    env: dict[str, np.ndarray] | None = None


class DispatchState:
    """Shared readiness/completion state of one dispatch, behind one lock.

    Tracks remaining dependency counts, the dependents to trigger on each
    completion, produced values, actual task→worker placements,
    completion order, lost devices, and worker-side errors.
    """

    def __init__(self, plan: HeteroPlan, template: "_DependencyTemplate | None" = None):
        self.lock = threading.Lock()
        self.values: dict[tuple[str, int], np.ndarray] = {}
        self.task_worker: dict[str, str] = {}
        self.task_order: list[str] = []
        self.errors: list[BaseException] = []
        self.lost: set[str] = set()
        template = template or _DependencyTemplate(plan)
        self.remaining_deps = dict(template.remaining_deps)
        self.dependents = template.dependents


class _DependencyTemplate:
    """Precomputed dependency structure of a plan, shared across runs.

    :class:`~repro.runtime.session.EngineSession` reuses one template for
    every request instead of re-walking the plan's edges per call.
    """

    def __init__(self, plan: HeteroPlan):
        self.remaining_deps: dict[str, int] = {}
        self.dependents: dict[str, list[TaskSpec]] = {
            t.task_id: [] for t in plan.tasks
        }
        for task in plan.tasks:
            deps = {
                src.ref for src in task.sources.values() if src.kind == "task"
            }
            self.remaining_deps[task.task_id] = len(deps)
            for dep in deps:
                self.dependents[dep].append(task)


@dataclass
class CoreResult:
    """Outcome of one wall-clock run, the record every executor returns
    (:class:`~repro.runtime.resilient.ExecutionReport` extends it).

    ``wall_time_s`` of an inline run counts active execution segments
    only; ``preemptions`` is how many times the run was suspended at a
    phase boundary before it finished.
    """

    outputs: list[np.ndarray]
    wall_time_s: float
    task_worker: dict[str, str]  # task id -> device worker that ran it
    task_order: list[str]  # completion order
    preemptions: int = 0


@dataclass
class PhaseCheckpoint:
    """A preempted inline dispatch, frozen at a plan phase boundary.

    Returned by :meth:`DispatchKernel.run` when the ``should_preempt``
    predicate fired between two tasks with different ``phase_index``.
    The checkpoint owns private *copies* of every
    committed value — arena-backed dispatches share buffers across
    requests, so anything the interrupting request executes through the
    same kernel would otherwise clobber the suspended frontier.  Because
    the copies are exact and feed resolution at resume reads them
    verbatim, a resumed run is bit-identical to an uninterrupted one.

    Attributes:
        state: the dispatch state as of the completed-phase frontier
            (values detached from the arena).
        next_index: index into ``plan.tasks`` of the first unexecuted
            task.
        inputs: the request's external feeds (resume reuses them).
        phase_index: the last *completed* phase.
        elapsed_s: active execution wall time accumulated so far
            (suspension time is not counted).
        preemptions: how many times this run has been suspended.
    """

    state: DispatchState
    next_index: int
    inputs: Mapping[str, np.ndarray]
    phase_index: int
    elapsed_s: float
    preemptions: int


# ----------------------------------------------------------------------
# Transfer resolution and kernel execution (the dispatch kernel's stages)


def resolve_feeds(
    task: TaskSpec,
    worker_device: str,
    inputs: Mapping[str, np.ndarray],
    values: Mapping[tuple[str, int], np.ndarray],
    producer_device: Mapping[str, str],
    injector: "FaultInjector | None" = None,
    crossed: set[str] | None = None,
) -> dict[str, np.ndarray]:
    """Resolve a task's input tensors (caller must hold the state lock).

    Tensors crossing devices — external inputs consumed off-host, or task
    outputs produced on the other worker — pass through the fault
    injector's transfer hook, which may corrupt them or raise
    :class:`~repro.errors.TransferError`.  When ``crossed`` is given, the
    input ids that crossed devices are added to it (the transfer-guard
    middleware validates exactly those).
    """
    feeds: dict[str, np.ndarray] = {}
    for input_id, src in task.sources.items():
        if src.kind == "external":
            if src.ref not in inputs:
                raise ExecutionError(f"missing external input {src.ref!r}")
            value = np.asarray(inputs[src.ref])
            produced_on = "cpu"  # model inputs are host-resident
        else:
            value = values[(src.ref, src.output_index)]
            produced_on = producer_device.get(src.ref, worker_device)
        if produced_on != worker_device:
            if crossed is not None:
                crossed.add(input_id)
            if injector is not None:
                value = injector.on_transfer(src.ref, worker_device, value)
        feeds[input_id] = value
    return feeds


def execute_kernels(
    task: TaskSpec,
    feeds: Mapping[str, np.ndarray],
    arena: "TensorArena | None" = None,
) -> dict:
    """Execute a task's kernels numerically; returns the value environment.

    With an ``arena``, every kernel output lands in a preallocated
    per-slot buffer so repeated runs reuse stable storage instead of
    allocating fresh arrays (values are bit-identical either way).
    Native kernels write straight into the arena slot via ``run_into``
    — no intermediate allocation, no copy; NumPy closures compute then
    copy in, as before.
    """
    env = dict(task.module.params)
    env.update(feeds)
    if arena is None:
        for kernel in task.module.kernels:
            env[kernel.output_id] = kernel([env[i] for i in kernel.input_ids])
    else:
        tid = task.task_id
        for kernel in task.module.kernels:
            args = [env[i] for i in kernel.input_ids]
            key = (tid, kernel.output_id)
            if kernel.run_into is not None:
                buf = arena.buffer(key, *_slot_spec(task, kernel))
                env[kernel.output_id] = kernel.run_into(args, buf)
            else:
                env[kernel.output_id] = arena.store(key, kernel(args))
    return env


def _slot_spec(task: TaskSpec, kernel) -> tuple[tuple[int, ...], np.dtype]:
    ty = task.module.graph.node(kernel.output_id).ty
    return tuple(ty.shape), ty.dtype.to_numpy()


# ----------------------------------------------------------------------
# Middleware


Middleware = Callable[[TaskContext, Callable[[TaskContext], None]], None]


def build_attempt_stack(
    middleware: Sequence[Middleware],
    base: Callable[[TaskContext], None],
) -> Callable[[TaskContext], None]:
    """Compose a middleware stack around a base attempt, outermost first."""
    fn = base
    for mw in reversed(middleware):
        fn = _bind(mw, fn)
    return fn


def _bind(mw: Middleware, nxt: Callable[[TaskContext], None]):
    def call(ctx: TaskContext) -> None:
        mw(ctx, nxt)

    return call


class _AttemptDeadline(Exception):
    """Internal: one task attempt overran its per-attempt budget."""

    def __init__(self, elapsed: float, budget: float):
        super().__init__(f"attempt took {elapsed:.4f}s > budget {budget:.4f}s")
        self.elapsed = elapsed


class _GiveUp(Exception):
    """Internal: the retry middleware exhausted its attempts."""

    def __init__(self, cause: BaseException, attempts: int):
        super().__init__(str(cause))
        self.cause = cause
        self.attempts = attempts


class FaultInjectionMiddleware:
    """Consults a :class:`~repro.runtime.faults.FaultInjector` as each
    attempt starts: injected stalls sleep, kernel faults raise
    :class:`~repro.errors.TransientKernelError`, and dispatches onto a
    lost device raise :class:`~repro.errors.DeviceLostError`."""

    def __init__(self, injector: "FaultInjector"):
        self.injector = injector

    def __call__(self, ctx: TaskContext, call_next) -> None:
        self.injector.on_task_start(ctx.task.task_id, ctx.device)
        call_next(ctx)


class TransferGuardMiddleware:
    """Validates cross-device float tensors against non-finite corruption.

    Runs after feed resolution, before kernels: a poisoned transfer
    becomes a retryable :class:`~repro.errors.TransferError` instead of
    silently wrong outputs.
    """

    def __call__(self, ctx: TaskContext, call_next) -> None:
        for input_id in ctx.crossed:
            value = ctx.feeds[input_id]
            if np.issubdtype(value.dtype, np.floating) and not np.all(
                np.isfinite(value)
            ):
                raise TransferError(
                    f"non-finite tensor arrived for input "
                    f"{input_id!r} of task {ctx.task.task_id!r}"
                )
        call_next(ctx)


class TaskDeadlineMiddleware:
    """Bounds one task *attempt* to ``budget_s`` wall-clock seconds.

    An attempt that overruns raises before commit, so its results are
    discarded; under the retry middleware the overrun is a retryable
    fault (surfacing as a ``"task-deadline"`` event).
    """

    def __init__(self, budget_s: float):
        self.budget_s = budget_s

    def __call__(self, ctx: TaskContext, call_next) -> None:
        began = time.perf_counter()
        call_next(ctx)
        elapsed = time.perf_counter() - began
        if elapsed > self.budget_s:
            raise _AttemptDeadline(elapsed, self.budget_s)


class TracingMiddleware:
    """Structured tracing hook: emits ``task-start`` / ``task-finish`` /
    ``task-error`` :class:`ExecutionEvent` records to a sink callable.

    The sink receives each event as it happens (e.g. ``events.append``);
    ``clock`` maps to seconds since the run started.
    """

    def __init__(
        self,
        sink: Callable[[ExecutionEvent], None],
        clock: Callable[[], float] | None = None,
    ):
        self.sink = sink
        self._t0 = time.perf_counter()
        self.clock = clock or (lambda: time.perf_counter() - self._t0)

    def __call__(self, ctx: TaskContext, call_next) -> None:
        task_id, device = ctx.task.task_id, ctx.device
        self.sink(
            ExecutionEvent(
                kind="task-start",
                time_s=self.clock(),
                task_id=task_id,
                device=device,
                attempt=ctx.attempt,
            )
        )
        try:
            call_next(ctx)
        except BaseException as exc:  # re-raised: tracing observes, never handles
            self.sink(
                ExecutionEvent(
                    kind="task-error",
                    time_s=self.clock(),
                    task_id=task_id,
                    device=device,
                    attempt=ctx.attempt,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
            raise
        self.sink(
            ExecutionEvent(
                kind="task-finish",
                time_s=self.clock(),
                task_id=task_id,
                device=device,
                attempt=ctx.attempt,
            )
        )


class MetricsMiddleware:
    """Populates a metrics registry with per-attempt runtime observations.

    Feeds the serving layer's :class:`~repro.serving.MetricsRegistry`
    (duck-typed: anything exposing ``counter(name, help).inc(...)``
    works, so this module needs no import of :mod:`repro.serving`) with:

    * ``duet_device_busy_seconds_total{device=...}`` — wall-clock seconds
      each device worker spent executing task attempts;
    * ``duet_task_attempts_total{device=...}`` — attempts started;
    * ``duet_task_errors_total{device=...}`` — attempts that raised.

    Extra ``labels`` (e.g. ``model=...``) are attached to every sample.
    Place it *inside* any retry middleware so each attempt is observed.
    """

    def __init__(
        self,
        registry,
        labels: Mapping[str, str] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.labels = dict(labels or {})
        self.clock = clock
        self.busy = registry.counter(
            "duet_device_busy_seconds_total",
            help="Wall-clock seconds spent executing task attempts, by device.",
        )
        self.attempts = registry.counter(
            "duet_task_attempts_total",
            help="Task execution attempts started, by device.",
        )
        self.task_errors = registry.counter(
            "duet_task_errors_total",
            help="Task execution attempts that raised, by device.",
        )

    def __call__(self, ctx: TaskContext, call_next) -> None:
        self.attempts.inc(1, device=ctx.device, **self.labels)
        began = self.clock()
        try:
            call_next(ctx)
        except BaseException:
            self.busy.inc(
                max(0.0, self.clock() - began), device=ctx.device, **self.labels
            )
            self.task_errors.inc(1, device=ctx.device, **self.labels)
            raise
        self.busy.inc(
            max(0.0, self.clock() - began), device=ctx.device, **self.labels
        )


class InvariantMiddleware:
    """Runtime invariant validation (the ``REPRO_VALIDATE`` hook).

    After each task executes, every declared output must exist in the
    value environment with exactly the shape and dtype its graph node
    declares; violations raise
    :class:`~repro.errors.InvariantViolation` listing every mismatch.
    """

    def __call__(self, ctx: TaskContext, call_next) -> None:
        call_next(ctx)
        violations: list[str] = []
        graph = ctx.task.module.graph
        for out_id in ctx.task.module.output_ids:
            value = ctx.env.get(out_id) if ctx.env is not None else None
            if value is None:
                violations.append(
                    f"task {ctx.task.task_id!r}: output {out_id!r} was never "
                    "produced"
                )
                continue
            ty = graph.node(out_id).ty
            if tuple(value.shape) != tuple(ty.shape):
                violations.append(
                    f"task {ctx.task.task_id!r}: output {out_id!r} has shape "
                    f"{tuple(value.shape)}, declared {tuple(ty.shape)}"
                )
            if value.dtype != ty.dtype.to_numpy():
                violations.append(
                    f"task {ctx.task.task_id!r}: output {out_id!r} has dtype "
                    f"{value.dtype}, declared {ty.dtype.to_numpy()}"
                )
        if violations:
            raise InvariantViolation(violations)


class RetryMiddleware:
    """Per-task retry with exponential backoff and seeded jitter.

    Retryable faults are the :class:`~repro.errors.ExecutionError`
    hierarchy (transient kernel errors, transfer failures, corruption
    caught by the guard) plus per-attempt deadline overruns;
    :class:`~repro.errors.DeviceLostError` is never retried on the same
    device, and non-runtime exceptions (a genuine bug in a kernel) fail
    immediately instead of burning retries.

    Emits ``fault`` / ``backoff`` / ``retry`` / ``giveup`` /
    ``task-deadline`` events to ``events`` and bumps ``counters``.
    """

    def __init__(
        self,
        policy,  # RetryPolicy (typed loosely to avoid an import cycle)
        events: list[ExecutionEvent],
        counters: dict[str, int],
        rngs: Mapping[str, np.random.Generator],
        clock: Callable[[], float],
    ):
        self.policy = policy
        self.events = events
        self.counters = counters
        self.rngs = rngs
        self.clock = clock

    def __call__(self, ctx: TaskContext, call_next) -> None:
        task_id = ctx.task.task_id
        attempt_no = 0
        while True:
            attempt_no += 1
            ctx.attempt = attempt_no
            try:
                call_next(ctx)
                return
            except DeviceLostError:
                raise  # permanent: the failure policy handles it
            except _AttemptDeadline as exc:
                self.counters["task_deadline_misses"] += 1
                kind, cause = "task-deadline", DeadlineExceededError(
                    f"task {task_id!r}: {exc}"
                )
            except ExecutionError as exc:  # transient fault: retryable
                self.counters["faults"] += 1
                kind, cause = "fault", exc
            self.events.append(
                ExecutionEvent(
                    kind=kind,
                    time_s=self.clock(),
                    task_id=task_id,
                    device=ctx.device,
                    attempt=attempt_no,
                    detail=str(cause),
                )
            )
            if attempt_no >= self.policy.max_attempts:
                self.counters["giveups"] += 1
                self.events.append(
                    ExecutionEvent(
                        kind="giveup",
                        time_s=self.clock(),
                        task_id=task_id,
                        device=ctx.device,
                        attempt=attempt_no,
                        detail=f"retries exhausted: {cause}",
                    )
                )
                raise _GiveUp(cause, attempt_no) from cause
            delay = self.policy.backoff_s(attempt_no, self.rngs[ctx.device])
            self.counters["retries"] += 1
            self.events.append(
                ExecutionEvent(
                    kind="backoff",
                    time_s=self.clock(),
                    task_id=task_id,
                    device=ctx.device,
                    attempt=attempt_no,
                    detail=f"sleeping {delay:.6f}s",
                )
            )
            time.sleep(delay)
            self.events.append(
                ExecutionEvent(
                    kind="retry",
                    time_s=self.clock(),
                    task_id=task_id,
                    device=ctx.device,
                    attempt=attempt_no + 1,
                )
            )


# ----------------------------------------------------------------------
# Worker strategies


@dataclass(frozen=True)
class InlineWorkers:
    """Sequential worker strategy: tasks run on the calling thread in plan
    (priority) order.  No threads, no queues — the strategy behind the
    simulator's numeric outputs and
    :class:`~repro.runtime.session.EngineSession`."""


@dataclass(frozen=True)
class ThreadedWorkers:
    """One named daemon worker thread per device with sync queues
    (``duet-worker-cpu`` / ``duet-worker-gpu``), the paper's §IV-D
    executor architecture.

    Attributes:
        join_timeout: seconds to wait for each worker at shutdown before
            declaring it wedged.
    """

    join_timeout: float = 5.0


# ----------------------------------------------------------------------
# Failure policies


@dataclass
class _Message:
    """Worker -> orchestrator completion notification."""

    kind: str  # "ok" | "fail" | "lost"
    task: TaskSpec
    exc: BaseException | None = None
    attempts: int | None = None


class _Controller:
    """What a failure policy may do to the dispatch while handling a
    failure: inspect/requeue work, mark devices lost, read the clock."""

    def __init__(self, kernel: "DispatchKernel", state: DispatchState, queues, clock):
        self.kernel = kernel
        self.state = state
        self.queues = queues
        self.clock = clock

    def drain(self, device: str) -> list[TaskSpec]:
        """Pull all queued-but-unstarted tasks off one device queue."""
        moved = []
        while True:
            try:
                task = self.queues[device].get_nowait()
            except queue.Empty:
                break
            if task is not None:
                moved.append(task)
        return moved

    def requeue(self, task: TaskSpec, device: str) -> None:
        self.queues[device].put(task)


def _deadline_error(
    deadline_s: float, n_done: int, n_tasks: int
) -> DeadlineExceededError:
    """The end-to-end deadline terminal error, shared by both policies."""
    return DeadlineExceededError(
        f"inference exceeded end-to-end deadline of "
        f"{deadline_s:.4f}s ({n_done}/{n_tasks} tasks done)"
    )


class AbortPolicy:
    """Plain-threaded failure semantics: any failure aborts the run;
    every worker failure collected before shutdown lands in one
    :class:`~repro.errors.ExecutionError` message, chained to the first
    cause."""

    def on_failure(self, msg: _Message, control: _Controller):
        """Abort on the first failure; errors are raised in :meth:`finish`."""
        return ("abort", None)

    def on_deadline(
        self, deadline_s: float, n_done: int, n_tasks: int, clock
    ) -> ExecutionError:
        """Build the end-to-end deadline terminal error."""
        return _deadline_error(deadline_s, n_done, n_tasks)

    def finish(
        self, state: DispatchState, stuck: list[str], join_timeout: float
    ) -> None:
        """Raise the collected failure(s), naming any wedged workers."""
        if state.errors:
            detail = (
                f" (worker(s) {', '.join(stuck)} still wedged after "
                f"{join_timeout:.1f}s)"
                if stuck
                else ""
            )
            raise ExecutionError(
                _format_failures(state.errors, detail)
            ) from state.errors[0]
        if stuck:
            raise ExecutionError(
                f"worker thread(s) for device(s) {', '.join(stuck)} did not "
                f"finish within {join_timeout:.1f}s; a task is wedged"
            )


class RestartOnSurvivor(Exception):
    """Signal: abandon the hetero run, rerun on the survivor's standing
    single-device degradation plan.

    Raised out of :meth:`DispatchKernel.run` (after a clean worker
    shutdown) for the caller — the resilient shim — to catch and act on.

    Attributes:
        survivor: the still-healthy device.
        cause: the :class:`~repro.errors.DeviceLostError` that triggered
            the restart.
    """

    def __init__(self, survivor: str, cause: DeviceLostError):
        super().__init__(survivor)
        self.survivor = survivor
        self.cause = cause


class FailoverPolicy:
    """Resilient failure semantics: retries already happened in the
    middleware; terminal task failures abort with a structured message,
    and device losses fail remaining work over to the survivors — by
    migrating queued tasks in place (round-robin across survivors in
    worker order), or by signalling a restart on a standing
    single-device degradation plan when exactly one device survives and
    nothing has completed yet."""

    def __init__(
        self,
        events: list[ExecutionEvent],
        counters: dict[str, int],
        failover: bool = True,
        restart_devices: frozenset[str] | set[str] = frozenset(),
        allow_restart: bool = True,
        devices: Sequence[str] = DEVICES,
    ):
        self.events = events
        self.counters = counters
        self.failover = failover
        self.restart_devices = set(restart_devices)
        self.allow_restart = allow_restart
        self.devices = tuple(devices)
        self._next_survivor = 0

    def on_failure(self, msg: _Message, control: _Controller):
        """Handle one failure message; returns an orchestrator action."""
        if msg.kind == "fail":
            if msg.attempts is not None:
                terminal = ExecutionError(
                    f"task {msg.task.task_id!r} failed after "
                    f"{msg.attempts} attempt(s): {msg.exc}"
                )
            else:  # non-retryable (outside the ExecutionError hierarchy)
                terminal = ExecutionError(
                    f"task {msg.task.task_id!r} failed: {msg.exc}"
                )
            return ("abort", terminal)
        # Device loss.
        state = control.state
        exc = msg.exc
        dead = exc.device
        with state.lock:
            newly = dead not in state.lost
            state.lost.add(dead)
            survivors = [d for d in self.devices if d not in state.lost]
            completed_any = bool(state.task_order)
        if newly:
            self.counters["device_losses"] += 1
            self.events.append(
                ExecutionEvent(
                    kind="device-lost",
                    time_s=control.clock(),
                    task_id=msg.task.task_id,
                    device=dead,
                    detail=str(exc),
                )
            )
        if not survivors:
            return (
                "abort",
                ExecutionError(
                    f"all devices lost (last: {exc}); cannot fail over"
                ),
            )
        if not self.failover:
            return ("abort", exc)
        if (
            self.allow_restart
            and not completed_any
            and len(survivors) == 1
            and survivors[0] in self.restart_devices
        ):
            return ("restart", RestartOnSurvivor(survivors[0], exc))
        if newly:
            self.counters["failovers"] += 1
            # Retarget the dead device's queued-but-unstarted work.
            for moved in control.drain(dead):
                self._migrate(moved, dead, self._pick(survivors), control)
        # The task whose attempt observed the loss migrates too.
        self._migrate(msg.task, dead, self._pick(survivors), control)
        return None  # continue

    def _pick(self, survivors: list[str]) -> str:
        """Deterministic round-robin over survivors in worker order (with
        one survivor — the whole 2-device machine — always that one)."""
        dest = survivors[self._next_survivor % len(survivors)]
        self._next_survivor += 1
        return dest

    def _migrate(
        self, task: TaskSpec, dead: str, survivor: str, control: _Controller
    ) -> None:
        self.counters["migrated_tasks"] += 1
        self.events.append(
            ExecutionEvent(
                kind="failover-migrate",
                time_s=control.clock(),
                task_id=task.task_id,
                device=survivor,
                detail=f"migrated off lost device {dead!r}",
            )
        )
        control.requeue(task, survivor)

    def on_deadline(
        self, deadline_s: float, n_done: int, n_tasks: int, clock
    ) -> ExecutionError:
        """Build (and log) the end-to-end deadline terminal error."""
        terminal = _deadline_error(deadline_s, n_done, n_tasks)
        self.events.append(
            ExecutionEvent(kind="deadline", time_s=clock(), detail=str(terminal))
        )
        return terminal

    def finish(
        self, state: DispatchState, stuck: list[str], join_timeout: float
    ) -> None:
        """Raise when a worker wedged (terminal errors already raised)."""
        if stuck:
            raise ExecutionError(
                f"worker thread(s) for device(s) {', '.join(stuck)} did not "
                f"finish within {join_timeout:.1f}s; a task is wedged"
            )


def _format_failures(errors: list[BaseException], extra: str = "") -> str:
    """One message naming every worker failure, first cause leading."""
    head = f"threaded execution failed: {errors[0]}{extra}"
    if len(errors) == 1:
        return head
    others = "; ".join(f"{type(e).__name__}: {e}" for e in errors[1:])
    return (
        f"{head} (+{len(errors) - 1} additional worker failure(s): {others})"
    )


# ----------------------------------------------------------------------
# The dispatch kernel


class DispatchKernel:
    """The one executor: readiness tracking, worker dispatch, transfer
    resolution, and output collection for a :class:`HeteroPlan`.

    Args:
        plan: the heterogeneous plan to execute.
        workers: :class:`InlineWorkers` (sequential, calling thread) or
            :class:`ThreadedWorkers` (one named worker thread per device).
        middleware: policy middleware wrapping each task attempt,
            outermost first (retry, deadlines, tracing, validation...).
        fault_injector: optional deterministic chaos hooks, consulted at
            every attempt start and every cross-device tensor hand-off.
        failure_policy: what a worker failure does to the run
            (:class:`AbortPolicy` by default; :class:`FailoverPolicy`
            for resilient semantics).  Inline dispatch propagates
            exceptions directly and ignores the policy.
        arena: optional :class:`~repro.runtime.memory.TensorArena`; when
            given, kernel outputs land in preallocated reusable buffers.
        deadline_s: optional end-to-end wall-clock budget (threaded
            strategy only), enforced by the orchestrator.
        validate_transfers: install the non-finite transfer guard after
            feed resolution.
    """

    def __init__(
        self,
        plan: HeteroPlan,
        *,
        workers: InlineWorkers | ThreadedWorkers | None = None,
        middleware: Sequence[Middleware] = (),
        fault_injector: "FaultInjector | None" = None,
        failure_policy=None,
        arena: "TensorArena | None" = None,
        deadline_s: float | None = None,
        validate_transfers: bool = False,
    ):
        self.plan = plan
        self.workers = workers or ThreadedWorkers()
        self.middleware = list(middleware)
        self.fault_injector = fault_injector
        self.failure_policy = failure_policy or AbortPolicy()
        self.arena = arena
        self.deadline_s = deadline_s
        self.validate_transfers = validate_transfers
        self.devices = plan_worker_devices(plan)
        self.template = _DependencyTemplate(plan)

    # ------------------------------------------------------------------

    def run(
        self,
        inputs: Mapping[str, np.ndarray] | None = None,
        t0: float | None = None,
        *,
        should_preempt: Callable[[], bool] | None = None,
        checkpoint: PhaseCheckpoint | None = None,
    ) -> CoreResult | PhaseCheckpoint:
        """Execute the plan numerically; blocks until all tasks finish.

        ``t0`` anchors a threaded run's clock (events/deadlines are
        relative to it); it defaults to "now" and is supplied by callers
        that span several dispatches (the resilient restart path).

        Inline dispatch has suspension points at plan phase boundaries:
        before executing the first task of each *new* phase it consults
        ``should_preempt()`` (when given); a True answer freezes the
        dispatch into a :class:`PhaseCheckpoint`, returned instead of a
        result.  Pass the checkpoint back (``checkpoint=...``) to resume
        from the completed-phase frontier; inputs are carried inside it.
        Each segment executes at least one task, so a pathological
        always-preempt predicate still terminates in at most
        ``len(plan.tasks)`` resumptions.

        The resumed run is bit-identical to an uninterrupted one: the
        checkpoint detaches every committed value from the arena (exact
        copies), and feed resolution consumes those copies verbatim —
        interleaved requests through the same kernel/arena cannot
        perturb it.  ``CoreResult.wall_time_s`` of an inline run counts
        active execution segments only, never suspended time, and
        ``CoreResult.preemptions`` counts the suspensions.

        Raises :class:`~repro.errors.ExecutionError` when neither inputs
        nor a checkpoint are given, and when a predicate or checkpoint is
        given to a threaded worker strategy (preemption points are
        defined by the sequential plan order).
        """
        if inputs is None and checkpoint is None:
            raise ExecutionError("run needs inputs when starting fresh")
        if not isinstance(self.workers, InlineWorkers):
            if should_preempt is not None or checkpoint is not None:
                raise ExecutionError(
                    "preemptible dispatch requires InlineWorkers; threaded "
                    "dispatch has no sequential phase boundaries to suspend at"
                )
            t0 = time.perf_counter() if t0 is None else t0
            state = DispatchState(self.plan, self.template)
            return self._run_threaded(state, inputs, t0)
        if checkpoint is None:
            state = DispatchState(self.plan, self.template)
            start, elapsed, preemptions = 0, 0.0, 0
        else:
            state = checkpoint.state
            start = checkpoint.next_index
            inputs = checkpoint.inputs
            elapsed = checkpoint.elapsed_s
            preemptions = checkpoint.preemptions
        began = time.perf_counter()
        attempt = self._attempt_stack(state, inputs)
        tasks = self.plan.tasks  # plan order is topological
        for i in range(start, len(tasks)):
            task = tasks[i]
            if (
                should_preempt is not None
                and i > start  # guarantee progress within each segment
                and task.phase_index != tasks[i - 1].phase_index
                and should_preempt()
            ):
                with state.lock:
                    # Detach the frontier from the arena: an interloper
                    # dispatched through this kernel while we are
                    # suspended reuses (and clobbers) the same buffers.
                    state.values = {
                        key: np.copy(value)
                        for key, value in state.values.items()
                    }
                return PhaseCheckpoint(
                    state=state,
                    next_index=i,
                    inputs=inputs,
                    phase_index=tasks[i - 1].phase_index,
                    elapsed_s=elapsed + (time.perf_counter() - began),
                    preemptions=preemptions + 1,
                )
            ctx = TaskContext(task=task, device=task.device)
            try:
                attempt(ctx)
            except _GiveUp as exc:
                raise ExecutionError(
                    f"task {task.task_id!r} failed after "
                    f"{exc.attempts} attempt(s): {exc.cause}"
                ) from exc.cause
            self._commit(state, ctx)
        return self._collect(
            state, elapsed + (time.perf_counter() - began), preemptions
        )

    # ------------------------------------------------------------------

    def _attempt_stack(self, state: DispatchState, inputs):
        """Compose the per-attempt pipeline for one run."""
        injector = self.fault_injector

        def resolve_stage(ctx: TaskContext, call_next) -> None:
            ctx.crossed = set()
            with state.lock:
                ctx.feeds = resolve_feeds(
                    ctx.task,
                    ctx.device,
                    inputs,
                    state.values,
                    state.task_worker,
                    injector,
                    ctx.crossed,
                )
            call_next(ctx)

        def kernel_stage(ctx: TaskContext) -> None:
            ctx.env = execute_kernels(ctx.task, ctx.feeds, self.arena)

        stages: list[Middleware] = list(self.middleware)
        if injector is not None:
            stages.append(FaultInjectionMiddleware(injector))
        stages.append(resolve_stage)
        if self.validate_transfers:
            stages.append(TransferGuardMiddleware())
        return build_attempt_stack(stages, kernel_stage)

    def _commit(self, state: DispatchState, ctx: TaskContext):
        """Publish a finished task's outputs; returns newly-ready work as
        ``(task, destination device)`` pairs (lost devices rerouted)."""
        task = ctx.task
        with state.lock:
            for idx, out_id in enumerate(task.module.output_ids):
                state.values[(task.task_id, idx)] = ctx.env[out_id]
            state.task_worker[task.task_id] = ctx.device
            state.task_order.append(task.task_id)
            ready = []
            for dep in state.dependents[task.task_id]:
                state.remaining_deps[dep.task_id] -= 1
                if state.remaining_deps[dep.task_id] == 0:
                    dest = dep.device
                    if dest in state.lost:
                        dest = next(
                            (d for d in self.devices if d not in state.lost),
                            dest,
                        )
                    ready.append((dep, dest))
        return ready

    def _collect(
        self, state: DispatchState, wall_time_s: float, preemptions: int = 0
    ) -> CoreResult:
        outputs = [state.values[(tid, idx)] for tid, idx in self.plan.outputs]
        return CoreResult(
            outputs=outputs,
            wall_time_s=wall_time_s,
            task_worker=dict(state.task_worker),
            task_order=list(state.task_order),
            preemptions=preemptions,
        )

    # ------------------------------------------------------------------

    def _run_threaded(self, state, inputs, t0) -> CoreResult:
        attempt = self._attempt_stack(state, inputs)
        policy = self.failure_policy
        queues: dict[str, "queue.Queue[TaskSpec | None]"] = {
            dev: queue.Queue() for dev in self.devices
        }
        notify: "queue.Queue[_Message]" = queue.Queue()

        def clock() -> float:
            return time.perf_counter() - t0

        control = _Controller(self, state, queues, clock)

        def process(task: TaskSpec, device: str) -> None:
            ctx = TaskContext(task=task, device=device)
            try:
                attempt(ctx)
            except DeviceLostError as exc:
                with state.lock:
                    state.errors.append(exc)
                notify.put(_Message("lost", task, exc))
                return
            except _GiveUp as exc:
                with state.lock:
                    state.errors.append(exc.cause)
                notify.put(_Message("fail", task, exc.cause, exc.attempts))
                return
            except BaseException as exc:
                # Broad by design: arbitrary kernel exceptions must
                # propagate to the caller, not kill the worker silently.
                with state.lock:
                    state.errors.append(exc)
                notify.put(_Message("fail", task, exc))
                return
            for dep, dest in self._commit(state, ctx):
                queues[dest].put(dep)
            notify.put(_Message("ok", task))

        def worker(device: str) -> None:
            while True:
                task = queues[device].get()
                if task is None:
                    return
                process(task, device)

        workers = {
            dev: threading.Thread(
                target=worker,
                args=(dev,),
                name=f"duet-worker-{dev}",
                daemon=True,
            )
            for dev in self.devices
        }
        for t in workers.values():
            t.start()
        # Seed the queues with dependency-free tasks.
        for task in self.plan.tasks:
            if state.remaining_deps[task.task_id] == 0:
                queues[task.device].put(task)

        n_tasks = len(self.plan.tasks)
        n_done = 0
        terminal: BaseException | None = None
        restart: RestartOnSurvivor | None = None
        deadline_at = t0 + self.deadline_s if self.deadline_s is not None else None
        while n_done < n_tasks:
            timeout = None
            if deadline_at is not None:
                timeout = max(0.0, deadline_at - time.perf_counter())
            try:
                msg = notify.get(timeout=timeout)
            except queue.Empty:
                terminal = policy.on_deadline(
                    self.deadline_s, n_done, n_tasks, clock
                )
                break
            if msg.kind == "ok":
                n_done += 1
                continue
            action = policy.on_failure(msg, control)
            if action is None:
                continue
            what, payload = action
            if what == "restart":
                restart = payload
            else:
                terminal = payload
            break

        # Shutdown: drain, sentinel, join.
        join_timeout = self.workers.join_timeout
        stuck = []
        for q in queues.values():
            while True:
                try:
                    q.get_nowait()
                except queue.Empty:
                    break
        for dev in queues:
            queues[dev].put(None)
        for dev, t in workers.items():
            t.join(timeout=join_timeout)
            if t.is_alive():
                stuck.append(dev)

        if restart is not None:
            raise restart
        if terminal is not None:
            raise terminal
        policy.finish(state, stuck, join_timeout)
        return self._collect(state, time.perf_counter() - t0)
