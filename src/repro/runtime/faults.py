"""Deterministic fault injection for chaos-testing the executors.

A :class:`FaultPlan` declares *what* goes wrong — transient kernel
failures, latency stalls, transfer corruption/failure, permanent device
loss — and a :class:`FaultInjector` turns the plan into per-run stateful
hooks that both executors of the lowered dispatch program
(:class:`~repro.runtime.core.DispatchKernel`, and so
:class:`~repro.runtime.session.EngineSession` and the serving lanes, and
:class:`~repro.runtime.threaded.ThreadedExecutor`) call at well-defined
points of every step.  All behaviour is a pure function of the plan plus
attempt counters, so chaos scenarios replay identically run after run:
the same task attempt fails, the same transfer corrupts, the same device
dies.

* :meth:`FaultInjector.on_task_start` — called once per execution
  *attempt* of a task; may sleep (stall), raise
  :class:`~repro.errors.TransientKernelError`, or raise
  :class:`~repro.errors.DeviceLostError`.
* :meth:`FaultInjector.on_transfer` — called once per cross-device
  input of every attempt; may raise :class:`~repro.errors.TransferError`
  or return a corrupted copy of the array.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    DeviceLostError,
    ExecutionError,
    TransferError,
    TransientKernelError,
)

__all__ = [
    "KernelFault",
    "StallFault",
    "TransferFault",
    "DeviceLoss",
    "FaultPlan",
    "FaultInjector",
    "ScriptedChaosInjector",
]

def _check_device(name: str, what: str) -> None:
    """Device names are open-ended on a mesh; only reject junk values."""
    if not isinstance(name, str) or not name:
        raise ExecutionError(f"invalid {what} device {name!r}")


@dataclass(frozen=True)
class KernelFault:
    """Transient kernel failure: the first ``fail_attempts`` execution
    attempts of ``task_id`` raise :class:`TransientKernelError`."""

    task_id: str
    fail_attempts: int = 1
    message: str = "injected transient kernel fault"

    def __post_init__(self) -> None:
        if self.fail_attempts < 1:
            raise ExecutionError(
                f"KernelFault.fail_attempts must be >= 1, got {self.fail_attempts}"
            )


@dataclass(frozen=True)
class StallFault:
    """Latency stall: the first ``stall_attempts`` attempts of ``task_id``
    take an extra ``delay_s`` wall-clock seconds."""

    task_id: str
    delay_s: float
    stall_attempts: int = 1

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ExecutionError(f"StallFault.delay_s must be >= 0, got {self.delay_s}")
        if self.stall_attempts < 1:
            raise ExecutionError(
                f"StallFault.stall_attempts must be >= 1, got {self.stall_attempts}"
            )


@dataclass(frozen=True)
class TransferFault:
    """A faulty cross-device transfer of the tensor produced by ``ref``
    (a task id, or an external input name) arriving on ``dest_device``.

    ``mode="fail"`` raises :class:`TransferError`; ``mode="corrupt"``
    silently delivers a poisoned copy (NaN-filled for floats, a saturated
    fill for integers).  Either way only the first ``fail_attempts``
    fetches misbehave, so a retry observes a clean transfer.
    """

    ref: str
    dest_device: str
    mode: str = "fail"
    fail_attempts: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("fail", "corrupt"):
            raise ExecutionError(f"invalid TransferFault mode {self.mode!r}")
        _check_device(self.dest_device, "TransferFault")
        if self.fail_attempts < 1:
            raise ExecutionError(
                f"TransferFault.fail_attempts must be >= 1, got {self.fail_attempts}"
            )


@dataclass(frozen=True)
class DeviceLoss:
    """Permanent device loss: ``device`` dies the moment task ``at_task``
    is dispatched (on any device — if the task itself sits on the dying
    device, its attempt raises :class:`DeviceLostError`)."""

    device: str
    at_task: str

    def __post_init__(self) -> None:
        _check_device(self.device, "DeviceLoss")


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of everything that will go wrong in a run."""

    kernel_faults: tuple[KernelFault, ...] = ()
    stalls: tuple[StallFault, ...] = ()
    transfer_faults: tuple[TransferFault, ...] = ()
    device_losses: tuple[DeviceLoss, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Tolerate lists in hand-written plans.
        for name in ("kernel_faults", "stalls", "transfer_faults", "device_losses"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (
            self.kernel_faults
            or self.stalls
            or self.transfer_faults
            or self.device_losses
        )


class FaultInjector:
    """Stateful, seeded realization of a :class:`FaultPlan` for one run.

    The injector counts attempts per task and per transfer so "fail the
    first *k* attempts" semantics compose with the retry middleware's
    loop.  Call :meth:`reset` to reuse one injector across runs.
    """

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self._kernel = {f.task_id: f for f in self.plan.kernel_faults}
        self._stall = {f.task_id: f for f in self.plan.stalls}
        self._transfer = {
            (f.ref, f.dest_device): f for f in self.plan.transfer_faults
        }
        self._loss_at_task: dict[str, list[DeviceLoss]] = {}
        for loss in self.plan.device_losses:
            self._loss_at_task.setdefault(loss.at_task, []).append(loss)
        self.reset()

    def reset(self) -> None:
        """Forget all attempt counters and revive lost devices."""
        self._task_attempts: dict[str, int] = {}
        self._transfer_attempts: dict[tuple[str, str], int] = {}
        self._lost: set[str] = set()
        self._rng = np.random.default_rng(self.plan.seed)

    # ------------------------------------------------------------------
    # Introspection

    def task_attempts(self, task_id: str) -> int:
        """How many execution attempts of ``task_id`` have started."""
        return self._task_attempts.get(task_id, 0)

    def revive_device(self, device: str) -> None:
        """Bring a lost device back (driver reset / hot-plug recovery).

        Subsequent dispatches onto ``device`` stop raising
        :class:`DeviceLostError`; attempt counters are untouched so
        unrelated fault schedules keep replaying deterministically.
        """
        self._lost.discard(device)

    # ------------------------------------------------------------------
    # Hooks (every step of either executor)

    def on_task_start(self, task_id: str, device: str) -> None:
        """Hook for the start of one execution attempt.

        May sleep (:class:`StallFault`), raise
        :class:`TransientKernelError` (:class:`KernelFault`) or raise
        :class:`DeviceLostError` (:class:`DeviceLoss` trigger, or any
        dispatch onto an already-lost device).
        """
        for loss in self._loss_at_task.get(task_id, ()):  # trigger deaths
            self._lost.add(loss.device)
        if device in self._lost:
            raise DeviceLostError(device)
        attempt = self._task_attempts.get(task_id, 0) + 1
        self._task_attempts[task_id] = attempt
        stall = self._stall.get(task_id)
        if stall is not None and attempt <= stall.stall_attempts:
            time.sleep(stall.delay_s)
        fault = self._kernel.get(task_id)
        if fault is not None and attempt <= fault.fail_attempts:
            raise TransientKernelError(
                f"{fault.message} (task {task_id!r}, attempt {attempt})"
            )

    def on_transfer(
        self, ref: str, dest_device: str, array: np.ndarray
    ) -> np.ndarray:
        """Hook for a tensor crossing devices toward ``dest_device``.

        Returns the (possibly corrupted) array; raises
        :class:`TransferError` for ``mode="fail"`` faults.
        """
        fault = self._transfer.get((ref, dest_device))
        if fault is None:
            return array
        key = (ref, dest_device)
        attempt = self._transfer_attempts.get(key, 0) + 1
        self._transfer_attempts[key] = attempt
        if attempt > fault.fail_attempts:
            return array
        if fault.mode == "fail":
            raise TransferError(
                f"injected transfer failure of {ref!r} -> {dest_device} "
                f"(attempt {attempt})"
            )
        return self._corrupt(array)

    def _corrupt(self, array: np.ndarray) -> np.ndarray:
        poisoned = np.array(array, copy=True)
        if np.issubdtype(poisoned.dtype, np.floating):
            poisoned.fill(np.nan)
        elif np.issubdtype(poisoned.dtype, np.integer):
            poisoned.fill(np.iinfo(poisoned.dtype).max)
        return poisoned


class ScriptedChaosInjector(FaultInjector):
    """Thread-safe injector whose faults are switched on and off live.

    :class:`FaultInjector` realizes a *declarative* plan fixed before the
    run and is documented as single-run, single-thread.  The serving
    chaos harness needs the opposite shape: one injector shared by a pool
    of worker slots, with the *harness* thread flipping fault modes while
    request threads execute — "now everything is transient-flaky", "now
    the GPU is gone", "now recover".  This subclass adds a mode switch
    guarded by a lock, so the scripted schedule composes with concurrent
    `EngineSession` pools:

    * ``set_mode("transient", rate=k)`` — every *k*-th task attempt
      (globally, across all threads) raises
      :class:`~repro.errors.TransientKernelError`; retries in between
      succeed, so the retry middleware absorbs the noise.
    * ``set_mode("stall", stall_s=d)`` — every ``rate``-th attempt sleeps
      an extra ``d`` seconds before running.
    * ``lose_device(dev)`` / ``revive_device(dev)`` — permanent loss and
      hot-plug recovery, reusing the base class's lost-device set (all
      reads/writes of that set happen under the mode lock here).
    * ``set_mode(None)`` — healthy.

    Determinism is per-schedule, not per-interleaving: the *number* of
    injected faults is a pure function of the attempt counter, but which
    request observes fault *i* depends on thread timing — exactly the
    nondeterminism the serving invariants (terminal-state accounting,
    bit-identical successes) must hold under.
    """

    def __init__(self) -> None:
        super().__init__(FaultPlan())
        self._script_lock = threading.Lock()
        self._mode: str | None = None
        self._rate = 1
        self._stall_s = 0.0
        self._calls = 0

    def set_mode(
        self, mode: str | None, rate: int = 3, stall_s: float = 0.0
    ) -> None:
        """Switch the active fault mode (``"transient"``/``"stall"``/None)."""
        if mode not in (None, "transient", "stall"):
            raise ExecutionError(f"invalid chaos mode {mode!r}")
        if rate < 1:
            raise ExecutionError(f"chaos rate must be >= 1, got {rate}")
        if stall_s < 0:
            raise ExecutionError(f"stall_s must be >= 0, got {stall_s}")
        with self._script_lock:
            self._mode = mode
            self._rate = rate
            self._stall_s = stall_s

    def lose_device(self, device: str) -> None:
        """Permanently lose ``device`` until :meth:`revive_device`."""
        _check_device(device, "lose_device")
        with self._script_lock:
            self._lost.add(device)

    def revive_device(self, device: str) -> None:
        with self._script_lock:
            self._lost.discard(device)

    # ------------------------------------------------------------------

    def on_task_start(self, task_id: str, device: str) -> None:
        with self._script_lock:
            if device in self._lost:
                raise DeviceLostError(device)
            if self._mode is None:
                return
            self._calls += 1
            fire = self._calls % self._rate == 0
            mode, stall_s = self._mode, self._stall_s
        if not fire:
            return
        if mode == "transient":
            raise TransientKernelError(
                f"scripted transient fault (task {task_id!r})"
            )
        if mode == "stall" and stall_s > 0:
            time.sleep(stall_s)

    def on_transfer(
        self, ref: str, dest_device: str, array: np.ndarray
    ) -> np.ndarray:
        with self._script_lock:
            if dest_device in self._lost:
                raise DeviceLostError(dest_device)
        return array
