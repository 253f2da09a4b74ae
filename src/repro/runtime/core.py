"""Unified runtime core: one dispatch program behind every executor.

The paper's executor (§IV-D) is a single concept — device workers draining
a dependency-ordered task queue, with tensors crossing devices between
them.  Every task runs on the device its plan names, so which inputs
cross devices, where each value lives and which tasks wait on which are
all fixed when the plan is built.  This module fixes them exactly once:

* :func:`lower_plan` — lowers a :class:`HeteroPlan` to a tuple of
  :class:`Step` records (task, pre-bound feeds, output value slots,
  producer count, consumer indices); a run's values live in one list
  indexed by slot.
* :func:`dispatch_stack` — the per-attempt pipeline each step runs
  through: caller middleware, the fault injector's start hook, feed
  resolution (where cross-device inputs meet the injector's transfer
  hook), the transfer guard, then :func:`execute_kernels`.
* :class:`DispatchKernel` — the inline executor: the steps in plan
  (priority) order on the calling thread, with suspension points at
  phase boundaries (:class:`PhaseCheckpoint`).  The same steps run on
  one ``duet-worker-<device>`` thread per device in
  :class:`~repro.runtime.threaded.ThreadedExecutor`.
* **Policy middleware** — small objects wrapping one task *attempt*
  (``middleware(ctx, call_next)``), composed outermost-first:
  :class:`RetryMiddleware` (backoff + seeded jitter under a
  :class:`RetryPolicy`), :class:`TracingMiddleware` (structured
  :class:`ExecutionEvent` stream), :class:`FaultInjectionMiddleware`
  (deterministic chaos hooks), :class:`TransferGuardMiddleware`
  (non-finite corruption detection on cross-device tensors), and
  :class:`InvariantMiddleware` (``REPRO_VALIDATE``-style output
  shape/dtype checks).

Recovery from faults belongs to the serving lane
(:mod:`repro.serving.frontend`), which retries through
:class:`RetryMiddleware` and rebuilds a slot on a survivor's standing
plan after a device loss.

Every wall-clock run returns one record, :class:`CoreResult`.  The entry
points built on the inline kernel each add one thing to it:
:class:`~repro.runtime.session.EngineSession` (an arena, caller-owned
outputs) and :func:`~repro.runtime.simulator.simulate` (a virtual clock
beside the inline outputs).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.errors import (
    DeviceLostError,
    ExecutionError,
    InvariantViolation,
    TransferError,
)
from repro.runtime.plan import DEVICES, HeteroPlan, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guards for type hints
    from repro.runtime.faults import FaultInjector
    from repro.runtime.memory import TensorArena

__all__ = [
    "plan_worker_devices",
    "ExecutionEvent",
    "TaskContext",
    "Step",
    "lower_plan",
    "CoreResult",
    "build_attempt_stack",
    "dispatch_stack",
    "RetryPolicy",
    "RetryMiddleware",
    "TracingMiddleware",
    "MetricsMiddleware",
    "FaultInjectionMiddleware",
    "TransferGuardMiddleware",
    "InvariantMiddleware",
    "DispatchKernel",
    "PhaseCheckpoint",
]

def plan_worker_devices(plan: HeteroPlan) -> tuple[str, ...]:
    """The worker device set a plan is dispatched across.

    Plans placed entirely on the default machine keep the canonical
    :data:`~repro.runtime.plan.DEVICES` pair (and its thread names), even
    single-device ones; mesh plans get one worker per device the
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

    Shared by the tracing and retry middleware.  ``kind`` is one of
    ``"task-start"``, ``"task-finish"``, ``"task-error"`` (tracing);
    ``"fault"``, ``"backoff"``, ``"retry"``, ``"giveup"`` (retry).
    """

    kind: str
    time_s: float
    task_id: str | None = None
    device: str | None = None
    attempt: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class Step:
    """One task of a lowered plan, with everything its dispatch needs.

    Attributes:
        task: the task.
        feeds: one ``(input id, source, crosses)`` per module input;
            ``source`` is a model-input name (``str``, host-resident) or
            a value slot (``int``), and ``crosses`` says whether the
            tensor changes device on its way in.
        outputs: the value slot of each module output, in
            ``module.output_ids`` order.
        n_producers: how many distinct steps feed this one.
        consumers: indices of the distinct steps reading its outputs,
            in plan order.
    """

    task: TaskSpec
    feeds: tuple[tuple[str, str | int, bool], ...]
    outputs: tuple[int, ...]
    n_producers: int
    consumers: tuple[int, ...]

    def publish(self, env: Mapping[str, np.ndarray], values: list) -> None:
        """Store the task's outputs from its value environment."""
        for out_id, slot in zip(self.task.module.output_ids, self.outputs):
            values[slot] = env[out_id]


def lower_plan(plan: HeteroPlan) -> tuple[tuple[Step, ...], tuple[int, ...]]:
    """Lower ``plan`` to its steps (plan order) and the value slot of
    each plan output.  Each task output gets one slot, in plan order."""
    index = {t.task_id: i for i, t in enumerate(plan.tasks)}
    slot: dict[tuple[str, int], int] = {}
    for task in plan.tasks:
        for k in range(len(task.module.output_ids)):
            slot[(task.task_id, k)] = len(slot)
    consumers: list[list[int]] = [[] for _ in plan.tasks]
    bound: list[tuple[tuple, int]] = []  # (feeds, producer count) per task
    for i, task in enumerate(plan.tasks):
        feeds, producers = [], set()
        for input_id, src in task.sources.items():
            if src.kind == "external":  # model inputs are host-resident
                feeds.append((input_id, src.ref, task.device != "cpu"))
                continue
            j = index[src.ref]
            producers.add(j)
            crosses = plan.tasks[j].device != task.device
            feeds.append((input_id, slot[(src.ref, src.output_index)], crosses))
        for j in producers:
            consumers[j].append(i)
        bound.append((tuple(feeds), len(producers)))
    steps = tuple(
        Step(
            task=task,
            feeds=feeds,
            outputs=tuple(
                slot[(task.task_id, k)]
                for k in range(len(task.module.output_ids))
            ),
            n_producers=n_producers,
            consumers=tuple(consumers[i]),
        )
        for i, (task, (feeds, n_producers)) in enumerate(zip(plan.tasks, bound))
    )
    return steps, tuple(slot[ref] for ref in plan.outputs)


@dataclass
class TaskContext:
    """Mutable per-attempt context threaded through the middleware stack.

    Attributes:
        task: the task being executed.
        device: the device worker executing it.
        attempt: 1-based attempt number (maintained by the retry
            middleware; 1 when no retry middleware is installed).
        feeds: resolved input tensors (set by the resolve stage).
        crossed: input ids whose tensors crossed devices this attempt.
        env: the kernel value environment after execution.
        step: the lowered step of ``task``.
        values: the run's value slots (read by the resolve stage).
        inputs: the run's model inputs.
    """

    task: TaskSpec
    device: str
    attempt: int = 1
    feeds: dict[str, np.ndarray] | None = None
    crossed: set[str] = field(default_factory=set)
    env: dict[str, np.ndarray] | None = None
    step: Step | None = None
    values: list | None = None
    inputs: Mapping[str, np.ndarray] | None = None


@dataclass
class CoreResult:
    """Outcome of one wall-clock run, the record every executor returns.

    ``wall_time_s`` of an inline run counts active execution segments
    only; ``preemptions`` is how many times the run was suspended at a
    phase boundary before it finished.  ``task_worker`` and
    ``task_order`` of an inline run are the plan's placement and order;
    a threaded run records them as its workers finish.
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
    published value — arena-backed dispatches share buffers across
    requests, so anything the interrupting request executes through the
    same kernel would otherwise clobber the suspended frontier.  Because
    the copies are exact and feed resolution at resume reads them
    verbatim, a resumed run is bit-identical to an uninterrupted one.

    Attributes:
        values: the run's value slots as of the completed-phase frontier
            (copies, detached from the arena; ``None`` where unset).
        next_index: index into ``plan.tasks`` of the first unexecuted
            task.
        inputs: the request's external feeds (resume reuses them).
        phase_index: the last *completed* phase.
        elapsed_s: active execution wall time accumulated so far
            (suspension time is not counted).
        preemptions: how many times this run has been suspended.
    """

    values: list
    next_index: int
    inputs: Mapping[str, np.ndarray]
    phase_index: int
    elapsed_s: float
    preemptions: int


# ----------------------------------------------------------------------
# Feed resolution and kernel execution (the attempt's innermost stages)


def _resolve(ctx: TaskContext, injector: "FaultInjector | None") -> None:
    """Bind a step's input tensors into ``ctx.feeds``.

    Tensors crossing devices pass through the fault injector's transfer
    hook, which may corrupt them or raise
    :class:`~repro.errors.TransferError`; their input ids land in
    ``ctx.crossed``, which the transfer-guard middleware validates.
    """
    step, values, inputs = ctx.step, ctx.values, ctx.inputs
    feeds: dict[str, np.ndarray] = {}
    crossed: set[str] = set()
    for input_id, source, crosses in step.feeds:
        if type(source) is int:
            value = values[source]
        elif source in inputs:
            value = np.asarray(inputs[source])
        else:
            raise ExecutionError(f"missing external input {source!r}")
        if crosses:
            crossed.add(input_id)
            if injector is not None:
                ref = step.task.sources[input_id].ref
                value = injector.on_transfer(ref, ctx.device, value)
        feeds[input_id] = value
    ctx.feeds, ctx.crossed = feeds, crossed


def execute_kernels(
    task: TaskSpec,
    feeds: Mapping[str, np.ndarray],
    arena: "TensorArena | None" = None,
) -> dict:
    """Execute a task's kernels numerically; returns the value environment.

    With an ``arena``, every kernel output lands in its slot of the
    arena's planned pool, so repeated runs reuse stable storage instead
    of allocating fresh arrays (values are bit-identical either way).
    Kernels with a ``run_into`` (native kernels, and NumPy kernels whose
    last op has an ``out=`` form) write straight into the slot; every
    other result is copied in.
    """
    env = dict(task.module.params)
    env.update(feeds)
    if arena is None:
        for kernel in task.module.kernels:
            env[kernel.output_id] = kernel([env[i] for i in kernel.input_ids])
    else:
        slots = arena.task_slots(task.task_id)
        for kernel, slot in zip(task.module.kernels, slots):
            args = [env[i] for i in kernel.input_ids]
            if kernel.run_into is None:
                value = kernel(args)
            else:
                value = kernel.run_into(args, slot)
            if value is not slot:
                value = arena.put(slot, value)
            env[kernel.output_id] = value
    return env


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

    def _emit(self, kind: str, ctx: TaskContext, detail: str = "") -> None:
        self.sink(
            ExecutionEvent(
                kind, self.clock(), ctx.task.task_id, ctx.device, ctx.attempt,
                detail,
            )
        )

    def __call__(self, ctx: TaskContext, call_next) -> None:
        self._emit("task-start", ctx)
        try:
            call_next(ctx)
        except BaseException as exc:  # re-raised: tracing observes, never handles
            self._emit("task-error", ctx, f"{type(exc).__name__}: {exc}")
            raise
        self._emit("task-finish", ctx)


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


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient per-task faults.

    Attempt *n* (1-based) that fails sleeps
    ``backoff_base_s * backoff_multiplier**(n-1)``, scaled by a uniform
    jitter in ``[1-jitter, 1+jitter]`` drawn from the retry middleware's
    seeded generator, before attempt *n+1*.  The base and multiplier
    must be finite and non-negative, so every delay is a valid sleep.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.001
    backoff_multiplier: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecutionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        for name in ("backoff_base_s", "backoff_multiplier"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ExecutionError(
                    f"{name} must be finite and >= 0, got {value}"
                )
        if not 0.0 <= self.jitter < 1.0:
            raise ExecutionError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Sleep before the retry following failed attempt ``attempt``."""
        delay = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class RetryMiddleware:
    """Per-task retry with exponential backoff and seeded jitter.

    Retryable faults are the :class:`~repro.errors.ExecutionError`
    hierarchy (transient kernel errors, transfer failures, corruption
    caught by the guard); :class:`~repro.errors.DeviceLostError` is never
    retried on the same device, and non-runtime exceptions (a genuine
    bug in a kernel) fail immediately instead of burning retries.

    Emits ``fault`` / ``backoff`` / ``retry`` / ``giveup`` events to
    ``events`` and bumps ``counters``.
    """

    def __init__(
        self,
        policy: RetryPolicy,
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

    def _emit(
        self, kind: str, ctx: TaskContext, attempt: int, detail: str = ""
    ) -> None:
        self.events.append(
            ExecutionEvent(
                kind, self.clock(), ctx.task.task_id, ctx.device, attempt,
                detail,
            )
        )

    def __call__(self, ctx: TaskContext, call_next) -> None:
        attempt_no = 0
        while True:
            attempt_no += 1
            ctx.attempt = attempt_no
            try:
                call_next(ctx)
                return
            except DeviceLostError:
                raise  # permanent: the serving lane rebuilds the slot
            except ExecutionError as exc:  # transient fault: retryable
                self.counters["faults"] += 1
                cause = exc
            self._emit("fault", ctx, attempt_no, str(cause))
            if attempt_no >= self.policy.max_attempts:
                self.counters["giveups"] += 1
                self._emit(
                    "giveup", ctx, attempt_no, f"retries exhausted: {cause}"
                )
                raise _GiveUp(cause, attempt_no) from cause
            delay = self.policy.backoff_s(attempt_no, self.rngs[ctx.device])
            self.counters["retries"] += 1
            self._emit("backoff", ctx, attempt_no, f"sleeping {delay:.6f}s")
            time.sleep(delay)
            self._emit("retry", ctx, attempt_no + 1)


# ----------------------------------------------------------------------
# The dispatch program


def dispatch_stack(
    middleware: Sequence[Middleware],
    injector: "FaultInjector | None" = None,
    *,
    arena: "TensorArena | None" = None,
    validate_transfers: bool = False,
) -> Callable[[TaskContext], None]:
    """The attempt pipeline every step of a dispatch runs through.

    ``middleware`` outermost, then the injector's start hook, feed
    resolution (inside any retry middleware, so a retry re-fetches its
    transfers), the transfer guard when ``validate_transfers``, and the
    kernels, writing into ``arena`` when one is given.
    """

    def resolve_stage(ctx: TaskContext, call_next) -> None:
        _resolve(ctx, injector)
        call_next(ctx)

    def kernel_stage(ctx: TaskContext) -> None:
        ctx.env = execute_kernels(ctx.task, ctx.feeds, arena)

    stages: list[Middleware] = list(middleware)
    if injector is not None:
        stages.append(FaultInjectionMiddleware(injector))
    stages.append(resolve_stage)
    if validate_transfers:
        stages.append(TransferGuardMiddleware())
    return build_attempt_stack(stages, kernel_stage)


class DispatchKernel:
    """The inline executor: a plan's steps in plan (priority) order on
    the calling thread.

    The plan is lowered once, here (:func:`lower_plan`); a run is one
    value list and one pass over the steps.

    Args:
        plan: the heterogeneous plan to execute.
        middleware: policy middleware wrapping each task attempt,
            outermost first (retry, tracing, validation...).
        fault_injector: optional deterministic chaos hooks, consulted at
            every attempt start and every cross-device tensor hand-off.
        arena: optional :class:`~repro.runtime.memory.TensorArena`
            planned for ``plan``; when given, kernel outputs land in its
            pool.
        validate_transfers: install the non-finite transfer guard after
            feed resolution.
    """

    def __init__(
        self,
        plan: HeteroPlan,
        *,
        middleware: Sequence[Middleware] = (),
        fault_injector: "FaultInjector | None" = None,
        arena: "TensorArena | None" = None,
        validate_transfers: bool = False,
    ):
        if arena is not None and arena.plan is not plan:
            raise ExecutionError(
                "an arena serves the inline dispatch of the plan it was "
                "planned for"
            )
        self.plan = plan
        self.steps, self.outputs = lower_plan(plan)
        self._n_slots = sum(len(step.outputs) for step in self.steps)
        self._attempt = dispatch_stack(
            middleware,
            fault_injector,
            arena=arena,
            validate_transfers=validate_transfers,
        )
        self._task_worker = {t.task_id: t.device for t in plan.tasks}

    def run(
        self,
        inputs: Mapping[str, np.ndarray] | None = None,
        *,
        should_preempt: Callable[[], bool] | None = None,
        checkpoint: PhaseCheckpoint | None = None,
    ) -> CoreResult | PhaseCheckpoint:
        """Execute the plan numerically; raises the failing task's
        exception directly.

        The run has suspension points at plan phase boundaries: before
        executing the first task of each *new* phase it consults
        ``should_preempt()`` (when given); a True answer freezes the
        dispatch into a :class:`PhaseCheckpoint`, returned instead of a
        result.  Pass the checkpoint back (``checkpoint=...``) to resume
        from the completed-phase frontier; inputs are carried inside it.
        Each segment executes at least one task, so a pathological
        always-preempt predicate still terminates in at most
        ``len(plan.tasks)`` resumptions.

        The resumed run is bit-identical to an uninterrupted one: the
        checkpoint detaches every published value from the arena (exact
        copies), and feed resolution consumes those copies verbatim —
        interleaved requests through the same kernel/arena cannot
        perturb it.  ``CoreResult.wall_time_s`` counts active execution
        segments only, never suspended time, and
        ``CoreResult.preemptions`` counts the suspensions.

        Raises :class:`~repro.errors.ExecutionError` when neither inputs
        nor a checkpoint are given.
        """
        if checkpoint is None:
            if inputs is None:
                raise ExecutionError("run needs inputs when starting fresh")
            values: list = [None] * self._n_slots
            start, elapsed, preemptions = 0, 0.0, 0
        else:
            values = list(checkpoint.values)
            start = checkpoint.next_index
            inputs = checkpoint.inputs
            elapsed = checkpoint.elapsed_s
            preemptions = checkpoint.preemptions
        began = time.perf_counter()
        attempt, steps = self._attempt, self.steps
        for i in range(start, len(steps)):
            step = steps[i]
            task = step.task
            if (
                should_preempt is not None
                and i > start  # guarantee progress within each segment
                and task.phase_index != steps[i - 1].task.phase_index
                and should_preempt()
            ):
                # Detach the frontier from the arena: an interloper
                # dispatched through this kernel while we are suspended
                # reuses (and clobbers) the same buffers.
                return PhaseCheckpoint(
                    values=[None if v is None else np.copy(v) for v in values],
                    next_index=i,
                    inputs=inputs,
                    phase_index=steps[i - 1].task.phase_index,
                    elapsed_s=elapsed + (time.perf_counter() - began),
                    preemptions=preemptions + 1,
                )
            ctx = TaskContext(
                task, task.device, step=step, values=values, inputs=inputs
            )
            try:
                attempt(ctx)
            except _GiveUp as exc:
                raise ExecutionError(
                    f"task {task.task_id!r} failed after "
                    f"{exc.attempts} attempt(s): {exc.cause}"
                ) from exc.cause
            step.publish(ctx.env, values)
        return CoreResult(
            outputs=[values[slot] for slot in self.outputs],
            wall_time_s=elapsed + (time.perf_counter() - began),
            task_worker=dict(self._task_worker),
            task_order=list(self._task_worker),  # plan order
            preemptions=preemptions,
        )
