"""Real-concurrency executor: per-device worker threads + sync queues.

The paper's executor (§IV-D) spawns one worker per device; each works a
busy loop — poll the synchronization queue, execute the subgraph, trigger
its dependents.  :class:`ThreadedExecutor` runs the plan's lowered steps
(:func:`~repro.runtime.core.lower_plan`, the same program the inline
:class:`~repro.runtime.core.DispatchKernel` runs) on one named daemon
thread per device (``duet-worker-<device>``) with ``queue.Queue``
objects, so the dependency-triggering logic is validated under true
concurrency (NumPy releases the GIL inside its kernels, so the workers
genuinely overlap).  It returns a
:class:`~repro.runtime.core.CoreResult` whose placement and completion
order are recorded as the workers finish.

Timing of *this* executor is host wall-clock (useful as a sanity signal);
the calibrated virtual-time results come from
:mod:`repro.runtime.simulator`.

A :class:`~repro.runtime.faults.FaultInjector` can be attached for
deterministic chaos tests: it is consulted at every task attempt and every
cross-device tensor hand-off.  This executor has *no* recovery — the
first failure aborts the run: queued work is drained, the workers are
joined, and one :class:`~repro.errors.ExecutionError` names every
failure and any wedged worker, as in the paper's executor; retries and
failover live in the serving lane (:mod:`repro.serving.frontend`).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.core import (
    CoreResult,
    Middleware,
    TaskContext,
    _GiveUp,
    dispatch_stack,
    lower_plan,
    plan_worker_devices,
)
from repro.runtime.plan import HeteroPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime.faults import FaultInjector

__all__ = ["ThreadedExecutor"]


def _abort_error(
    errors: list[BaseException], stuck: list[str], join_timeout: float
) -> ExecutionError | None:
    """The error an aborted run raises, or ``None`` for a clean one:
    every worker failure (first cause leading) and every wedged worker
    in one message."""
    wedged = ", ".join(stuck)
    if not errors:
        if not stuck:
            return None
        return ExecutionError(
            f"worker thread(s) for device(s) {wedged} did not finish "
            f"within {join_timeout:.1f}s; a task is wedged"
        )
    message = f"threaded execution failed: {errors[0]}"
    if stuck:
        message += f" (worker(s) {wedged} still wedged after {join_timeout:.1f}s)"
    if len(errors) > 1:
        others = "; ".join(f"{type(e).__name__}: {e}" for e in errors[1:])
        message += (
            f" (+{len(errors) - 1} additional worker failure(s): {others})"
        )
    return ExecutionError(message)


class ThreadedExecutor:
    """Executes a :class:`HeteroPlan` with one worker thread per device.

    The plan is lowered once, at construction; every :meth:`run` reuses
    the steps.

    Args:
        plan: the heterogeneous plan to execute.
        join_timeout: seconds to wait for each worker to shut down.  A
            worker still alive after this raises
            :class:`~repro.errors.ExecutionError` naming the stuck device
            rather than silently returning a half-populated result.
        fault_injector: optional deterministic chaos hooks
            (:class:`~repro.runtime.faults.FaultInjector`); injected
            faults abort the run like real ones.
        middleware: policy middleware wrapping each task attempt,
            outermost first; it runs on the worker threads.
    """

    def __init__(
        self,
        plan: HeteroPlan,
        join_timeout: float = 5.0,
        fault_injector: "FaultInjector | None" = None,
        middleware: Sequence[Middleware] = (),
    ):
        self.plan = plan
        self.join_timeout = join_timeout
        self.devices = plan_worker_devices(plan)
        self.steps, self.outputs = lower_plan(plan)
        self._n_slots = sum(len(step.outputs) for step in self.steps)
        self._attempt = dispatch_stack(middleware, fault_injector)

    def run(self, inputs: Mapping[str, np.ndarray] | None) -> CoreResult:
        """Execute the plan numerically; blocks until all tasks finish."""
        if inputs is None:
            raise ExecutionError("run needs inputs when starting fresh")
        t0 = time.perf_counter()
        steps, attempt = self.steps, self._attempt
        values: list = [None] * self._n_slots
        remaining = [step.n_producers for step in steps]
        lock = threading.Lock()
        task_worker: dict[str, str] = {}
        task_order: list[str] = []
        errors: list[BaseException] = []
        queues: dict[str, "queue.Queue[int | None]"] = {
            dev: queue.Queue() for dev in self.devices
        }
        finished: "queue.Queue[bool]" = queue.Queue()  # one entry per step

        def process(i: int, device: str) -> None:
            step = steps[i]
            task = step.task
            ctx = TaskContext(
                task, device, step=step, values=values, inputs=inputs
            )
            try:
                attempt(ctx)
            except _GiveUp as exc:
                failure: BaseException = exc.cause
            except BaseException as exc:
                # Broad by design: arbitrary kernel exceptions must
                # propagate to the caller, not kill the worker silently.
                failure = exc
            else:
                ready = []
                with lock:
                    step.publish(ctx.env, values)
                    task_worker[task.task_id] = device
                    task_order.append(task.task_id)
                    for j in step.consumers:
                        remaining[j] -= 1
                        if remaining[j] == 0:
                            ready.append(j)
                for j in ready:
                    queues[steps[j].task.device].put(j)
                finished.put(True)
                return
            with lock:
                errors.append(failure)
            finished.put(False)

        def worker(device: str) -> None:
            while True:
                i = queues[device].get()
                if i is None:
                    return
                process(i, device)

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
        for i, step in enumerate(steps):  # seed with producer-free steps
            if step.n_producers == 0:
                queues[step.task.device].put(i)

        # Count completions; the first failure stops the run.
        n_done = 0
        while n_done < len(steps) and finished.get():
            n_done += 1

        # Shutdown: drain, sentinel, join.
        for q in queues.values():
            while True:
                try:
                    q.get_nowait()
                except queue.Empty:
                    break
            q.put(None)
        stuck = []
        for dev, t in workers.items():
            t.join(timeout=self.join_timeout)
            if t.is_alive():
                stuck.append(dev)

        error = _abort_error(errors, stuck, self.join_timeout)
        if error is not None:
            raise error from (errors[0] if errors else None)
        return CoreResult(
            outputs=[values[slot] for slot in self.outputs],
            wall_time_s=time.perf_counter() - t0,
            task_worker=task_worker,
            task_order=task_order,
        )
