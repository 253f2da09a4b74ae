"""Real-concurrency executor: per-device worker threads + sync queues.

The paper's executor (§IV-D) spawns one worker per device; each works a
busy loop — poll the synchronization queue, execute the subgraph, trigger
its dependents.  :class:`ThreadedExecutor` is
:class:`~repro.runtime.core.DispatchKernel` with
:class:`~repro.runtime.core.ThreadedWorkers`, aborting on any failure:
actual Python threads and ``queue.Queue`` objects executing
kernels numerically, so the dependency-triggering logic is validated
under true concurrency (NumPy releases the GIL inside its kernels, so the
two workers genuinely overlap).  It returns the kernel's
:class:`~repro.runtime.core.CoreResult` unchanged.

Timing of *this* executor is host wall-clock (useful as a sanity signal);
the calibrated virtual-time results come from
:mod:`repro.runtime.simulator`.

A :class:`~repro.runtime.faults.FaultInjector` can be attached for
deterministic chaos tests: it is consulted at every task attempt and every
cross-device tensor hand-off.  This executor has *no* recovery — an
injected fault aborts the run exactly like a real one, as in the paper's
executor; retries and failover live in the serving lane
(:mod:`repro.serving.frontend`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.runtime.core import CoreResult, DispatchKernel, ThreadedWorkers
from repro.runtime.plan import HeteroPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime.faults import FaultInjector

__all__ = ["ThreadedExecutor"]


class ThreadedExecutor:
    """Executes a :class:`HeteroPlan` with one worker thread per device.

    Args:
        plan: the heterogeneous plan to execute.
        join_timeout: seconds to wait for each worker to shut down.  A
            worker still alive after this raises
            :class:`~repro.errors.ExecutionError` naming the stuck device
            rather than silently returning a half-populated result.
        fault_injector: optional deterministic chaos hooks
            (:class:`~repro.runtime.faults.FaultInjector`); injected
            faults abort the run like real ones.
    """

    def __init__(
        self,
        plan: HeteroPlan,
        join_timeout: float = 5.0,
        fault_injector: "FaultInjector | None" = None,
    ):
        self.plan = plan
        self.join_timeout = join_timeout
        self.fault_injector = fault_injector

    def run(self, inputs: Mapping[str, np.ndarray]) -> CoreResult:
        """Execute the plan numerically; blocks until all tasks finish."""
        return DispatchKernel(
            self.plan,
            workers=ThreadedWorkers(join_timeout=self.join_timeout),
            fault_injector=self.fault_injector,
        ).run(inputs)
