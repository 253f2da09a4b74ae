"""Health tracking for serving lanes: slot states, device loss, shedding.

Three small, thread-safe pieces the frontend composes:

* :class:`SlotHealth` — one worker slot's health record: consecutive
  request failures plus a state machine over

  ::

      healthy ──DeviceLostError──▶ quarantined ──rebuild ok──▶ degraded
         ▲                                                        │
         └───────────── restore_device + rebuild ─────────────────┘

  A *quarantined* slot is out of service while its
  :class:`~repro.runtime.session.EngineSession` is rebuilt onto a
  surviving device's standing degradation plan; a *degraded* slot serves
  correctly (bit-identical outputs — the plans differ only in placement)
  but without co-execution.  ``restore_device`` rebuilds degraded slots
  back onto the primary plan in the background and swaps them in at a
  batch boundary.

* :class:`LaneHealth` — the lane-wide set of lost devices, shared by
  every slot so the first slot to observe a loss spares the others a
  doomed dispatch.

* :class:`TenantAwareShedder` — per-tenant EWMAs of observed queue wait
  and admission-to-completion sojourn plus one shared service-time
  estimate.  At submit time the frontend asks whether a request's
  deadline is meetable given what the lane has *actually* been
  delivering; unmeetable work is shed immediately with
  :class:`~repro.errors.LoadShedError` instead of expiring in the queue.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ExecutionError

__all__ = [
    "SLOT_HEALTHY",
    "SLOT_QUARANTINED",
    "SLOT_DEGRADED",
    "SLOT_STATE_CODES",
    "SlotHealth",
    "LaneHealth",
    "TenantAwareShedder",
]

SLOT_HEALTHY = "healthy"
SLOT_QUARANTINED = "quarantined"
SLOT_DEGRADED = "degraded"

#: Numeric encoding of slot states for the ``duet_slot_state`` gauge.
SLOT_STATE_CODES = {
    SLOT_HEALTHY: 0,
    SLOT_QUARANTINED: 1,
    SLOT_DEGRADED: 2,
}


class SlotHealth:
    """Health record of one worker slot (owned by the slot's worker
    thread; state reads from other threads are advisory)."""

    def __init__(self) -> None:
        self.state = SLOT_HEALTHY
        self.consecutive_failures = 0
        self.degraded_device: str | None = None
        self.quarantines = 0
        self.rebuilds = 0

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> int:
        """Count one terminal request failure; returns the streak length."""
        self.consecutive_failures += 1
        return self.consecutive_failures

    def quarantine(self) -> None:
        self.state = SLOT_QUARANTINED
        self.quarantines += 1

    def mark_degraded(self, device: str) -> None:
        """The slot now serves from ``device``'s degradation plan."""
        self.state = SLOT_DEGRADED
        self.degraded_device = device
        self.rebuilds += 1

    def mark_healthy(self) -> None:
        """The slot is back on the primary plan."""
        self.state = SLOT_HEALTHY
        self.degraded_device = None
        self.consecutive_failures = 0
        self.rebuilds += 1


class LaneHealth:
    """Lane-wide lost-device set, shared across a lane's worker slots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lost: set[str] = set()

    def mark_lost(self, device: str) -> bool:
        """Record a device loss; returns True when newly observed."""
        with self._lock:
            newly = device not in self._lost
            self._lost.add(device)
            return newly

    def revive(self, device: str) -> bool:
        """Forget a device loss; returns True when it was recorded."""
        with self._lock:
            was = device in self._lost
            self._lost.discard(device)
            return was

    def is_lost(self, device: str) -> bool:
        with self._lock:
            return device in self._lost

    @property
    def lost_devices(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._lost)


@dataclass
class _TenantEwma:
    """One tenant's EWMA record (guarded by the shedder's lock)."""

    samples: int = 0
    queue_wait_s: float = 0.0
    sojourn_s: float = 0.0


class TenantAwareShedder:
    """EWMA-based deadline feasibility check for admission-time shedding.

    Observes each completed request's queue wait and total sojourn
    (admission → completion) and predicts the next request's sojourn:

    * each tenant gets its own EWMA of queue wait and sojourn (a
      best-effort tenant's inflated sojourns must not shed a critical
      tenant whose observed latency is fine — and vice versa).  Before
      ``warmup`` observations a tenant's EWMAs offer no prediction, so a
      cold lane never rejects its first requests on zero evidence;
    * one *shared* service-time EWMA (``sojourn - queue wait``) is kept
      across tenants, seeded from the scheduler's
      :class:`~repro.core.scheduler.LatencyOracle`-derived estimate
      (``DuetOptimization.latency``) so predictions have an anchor
      before any traffic arrives.  The oracle estimate is simulated
      device time, not host wall time, so it is a *prior*, not a pin:
      the EWMA converges onto observed service within a few requests;
    * :meth:`unmeetable` takes the requesting tenant and the admission
      queue's current ``backlog_ahead`` for it (items that would be
      served first), adding a contention term ``backlog * service``.
      Backlog-ahead is monotone in priority tier, so at equal load a
      critical request is never predicted a longer sojourn — and hence
      never shed — in favor of a best-effort one.

    For a warm tenant with an empty queue the prediction degenerates to
    exactly the tenant's sojourn EWMA.

    Args:
        alpha: EWMA smoothing factor in (0, 1]; higher reacts faster.
        warmup: observations required before predictions are offered.
        service_prior_s: cold-start service-time estimate.
    """

    DEFAULT_TENANT = "default"

    def __init__(
        self,
        alpha: float = 0.2,
        warmup: int = 8,
        service_prior_s: float = 0.0,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ExecutionError(f"alpha must be in (0, 1], got {alpha}")
        if warmup < 1:
            raise ExecutionError(f"warmup must be >= 1, got {warmup}")
        if service_prior_s < 0:
            raise ExecutionError(
                f"service_prior_s must be >= 0, got {service_prior_s}"
            )
        self.alpha = alpha
        self.warmup = warmup
        self.service_prior_s = service_prior_s
        self._lock = threading.Lock()
        self._samples = 0
        self._service_s = service_prior_s
        self._tenants: dict[str, _TenantEwma] = {}

    def _warm(self, tenant: str | None) -> _TenantEwma | None:
        """``tenant``'s record once past warmup (caller holds the lock)."""
        record = self._tenants.get(tenant or self.DEFAULT_TENANT)
        if record is None or record.samples < self.warmup:
            return None
        return record

    def observe(
        self,
        queue_wait_s: float,
        sojourn_s: float,
        tenant: str | None = None,
    ) -> None:
        """Record one completed request's timings for ``tenant``."""
        service = max(0.0, sojourn_s - queue_wait_s)
        queue_wait_s = max(0.0, queue_wait_s)
        sojourn_s = max(0.0, sojourn_s)
        a = self.alpha
        with self._lock:
            record = self._tenants.setdefault(
                tenant or self.DEFAULT_TENANT, _TenantEwma()
            )
            if record.samples == 0:
                record.queue_wait_s = queue_wait_s
                record.sojourn_s = sojourn_s
            else:
                record.queue_wait_s += a * (queue_wait_s - record.queue_wait_s)
                record.sojourn_s += a * (sojourn_s - record.sojourn_s)
            record.samples += 1
            if self._samples == 0 and self.service_prior_s == 0.0:
                self._service_s = service
            else:
                # A nonzero oracle prior is blended away rather than
                # replaced: it anchored cold-start predictions and the
                # EWMA walks from it to the observed service time.
                self._service_s += a * (service - self._service_s)
            self._samples += 1

    def service_estimate_s(self) -> float:
        """Current service-time estimate (oracle prior until traffic)."""
        with self._lock:
            return self._service_s

    def predicted_sojourn_s(self, tenant: str | None = None) -> float | None:
        """``tenant``'s EWMA sojourn; None before its warmup."""
        with self._lock:
            record = self._warm(tenant)
            return None if record is None else record.sojourn_s

    def predicted_queue_wait_s(
        self, tenant: str | None = None
    ) -> float | None:
        """``tenant``'s EWMA queue wait; None before its warmup."""
        with self._lock:
            record = self._warm(tenant)
            return None if record is None else record.queue_wait_s

    def unmeetable(
        self,
        deadline_s: float,
        margin: float = 1.0,
        tenant: str | None = None,
        backlog_ahead: int = 0,
    ) -> float | None:
        """Whether ``tenant``'s deadline is predicted unmeetable.

        Prediction = (tenant sojourn EWMA, or the shared service
        estimate for a tenant still warming up) + ``backlog_ahead`` *
        service estimate, scaled by ``margin``.  Returns the offending
        prediction, or None to admit.  A fully cold lane (fewer than
        ``warmup`` observations across *all* tenants) abstains entirely.
        """
        with self._lock:
            record = self._warm(tenant)
            if record is not None:
                base = record.sojourn_s
            elif self._samples < self.warmup:
                return None
            else:
                base = self._service_s
            predicted = (base + backlog_ahead * self._service_s) * margin
        return predicted if predicted > deadline_s else None
