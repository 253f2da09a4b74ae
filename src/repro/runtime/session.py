"""Reusable engine sessions: plan once, serve many requests.

The serving story (ROADMAP north-star) needs the property the related
multi-tenant scheduling literature presumes: one scheduling decision is
executed many times over many requests.  ``DuetEngine.run`` re-enters the
simulator — and ``DuetEngine.optimize`` re-enters the whole
partition/profile/schedule pipeline — on every call.  An
:class:`EngineSession` front-loads all of that exactly once:

* the optimization (plan, placements, degradation plans) is fixed at
  session construction;
* the plan is lowered once to the dispatch program's steps inside the
  inline :class:`~repro.runtime.core.DispatchKernel`;
* model parameters load eagerly (at session construction, never
  mid-request): the plan's missing weights are generated in one batch
  into the compiler's :class:`~repro.ir.weights.WeightStore`, which
  every module of the plan reads from;
* intermediate tensors live in one
  :class:`~repro.runtime.memory.TensorArena` pool, planned from the
  plan's live ranges when the session is built: outputs whose live
  ranges never overlap share bytes, and requests allocate nothing.

``run(inputs)`` then costs one pass over the steps: bind each step's
feeds, execute its kernels, publish its outputs to their value slots.
It returns the kernel's :class:`~repro.runtime.core.CoreResult` with its
outputs copied out of the arena, so they stay valid after the next
request overwrites the session's buffers and are bit-identical to a
fresh ``DuetEngine.run``.

A session is not thread-safe for concurrent ``run`` calls; an internal
lock serializes them.  Sessions are cheap — use one per serving thread.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.compiler.lowering import load_params
from repro.runtime.core import (
    CoreResult,
    DispatchKernel,
    ExecutionEvent,
    InvariantMiddleware,
    Middleware,
    PhaseCheckpoint,
    TracingMiddleware,
)
from repro.runtime.memory import TensorArena
from repro.runtime.plan import HeteroPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import DuetOptimization
    from repro.runtime.faults import FaultInjector

__all__ = ["EngineSession"]


class EngineSession:
    """Serves repeated inferences of one optimized model.

    Build via :meth:`repro.core.engine.DuetEngine.session`, or directly
    from a plan.  Compilation, planning, and dependency analysis happen
    once, here; each :meth:`run` is a single pass through the inline
    dispatch kernel with arena-backed intermediate storage.

    Args:
        plan: the heterogeneous plan to serve.
        validate: install the invariant middleware (output shape/dtype
            checks against the declared graph types on every task).
        trace_sink: optional callable receiving a structured
            :class:`~repro.runtime.core.ExecutionEvent` for every task
            start/finish/error.
        opt: the originating optimization, kept for introspection
            (``session.opt``) when built through the engine.
        middleware: extra policy middleware (retry, metrics, deadlines)
            wrapping every task attempt, placed *outermost* — before the
            tracing and validation stages — so e.g. a retry middleware
            re-enters tracing on each attempt.
        fault_injector: optional deterministic chaos hooks (used by the
            serving stress tests to exercise the retry path in place).
        validate_transfers: install the non-finite transfer guard after
            feed resolution, turning corrupted cross-device tensors into
            retryable :class:`~repro.errors.TransferError`.
    """

    def __init__(
        self,
        plan: HeteroPlan,
        *,
        validate: bool = False,
        trace_sink: Callable[[ExecutionEvent], None] | None = None,
        opt: "DuetOptimization | None" = None,
        middleware: Iterable[Middleware] = (),
        fault_injector: "FaultInjector | None" = None,
        validate_transfers: bool = False,
    ):
        self.plan = plan
        self.opt = opt
        load_params(task.module for task in plan.tasks)
        self.arena = TensorArena(plan)
        stack: list[Middleware] = list(middleware)
        if trace_sink is not None:
            stack.append(TracingMiddleware(trace_sink))
        if validate:
            stack.append(InvariantMiddleware())
        self._kernel = DispatchKernel(
            plan,
            middleware=stack,
            arena=self.arena,
            fault_injector=fault_injector,
            validate_transfers=validate_transfers,
        )
        self._lock = threading.Lock()
        self.requests_served = 0

    def run(
        self,
        inputs: Mapping[str, np.ndarray] | None = None,
        should_preempt: Callable[[], bool] | None = None,
        checkpoint: PhaseCheckpoint | None = None,
    ) -> "CoreResult | PhaseCheckpoint":
        """One inference; returns a result whose outputs the caller owns.

        With a ``should_preempt`` predicate the request may suspend at a
        plan phase boundary: the
        :class:`~repro.runtime.core.PhaseCheckpoint` of the frozen
        dispatch is returned instead of a result, and passing it back
        (``checkpoint=...``, inputs are carried inside it) continues
        from the completed-phase frontier.  The session lock is released
        while suspended, so the same session may serve other (e.g.
        higher-priority) requests in between; they overwrite the whole
        pool, which cannot perturb the checkpoint (its values are
        detached copies), and the eventual outputs are bit-identical to
        an uninterrupted run.
        """
        with self._lock:
            outcome = self._kernel.run(
                inputs, should_preempt=should_preempt, checkpoint=checkpoint
            )
            if isinstance(outcome, PhaseCheckpoint):
                return outcome
            self.requests_served += 1
            outcome.outputs = [np.copy(o) for o in outcome.outputs]
            return outcome

    def run_many(
        self, batches: Iterable[Mapping[str, np.ndarray]]
    ) -> list[CoreResult]:
        """Serve a sequence of requests back to back."""
        return [self.run(inputs) for inputs in batches]
