"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch everything with a single ``except`` clause while still being able
to discriminate between IR construction problems, compilation failures, and
scheduling/runtime issues.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class IRError(ReproError):
    """Malformed IR: bad graph structure, unknown node ids, etc."""


class ShapeError(IRError):
    """Operator shape inference failed for the given input types."""


class TypeCheckError(IRError):
    """Dtype mismatch between operator inputs."""


class GraphValidationError(IRError):
    """A graph-level invariant (acyclicity, dangling edge, ...) is violated."""


class UnknownOpError(IRError):
    """An operator name is not present in the op registry."""


class CompilerError(ReproError):
    """A compiler pass or lowering step failed."""


class PartitionError(ReproError):
    """Graph partitioning produced or detected an invalid phase structure."""


class SchedulingError(ReproError):
    """Subgraph placement/scheduling failed or was given invalid input."""


class ProfilingError(ReproError):
    """The compiler-aware profiler could not profile a subgraph."""


class ExecutionError(ReproError):
    """Runtime execution of a compiled module failed."""


class TransientKernelError(ExecutionError):
    """A kernel failed in a way that is expected to succeed on retry.

    Raised by the fault injector (and retried by the retry middleware a
    serving lane installs); a real deployment would map driver-level soft
    errors — ECC hiccups, launch timeouts, spurious OOM — onto this
    class.
    """


class TransferError(ExecutionError):
    """A host↔device transfer failed or delivered corrupted data."""


class DeviceLostError(ExecutionError):
    """A device disappeared permanently (fell off the bus, driver reset).

    Unlike :class:`TransientKernelError` this is *not* retryable on the
    same device; a serving lane reacts by rebuilding the slot on a
    survivor's standing degradation plan.

    Attributes:
        device: placement name of the lost device (``"cpu"``/``"gpu"``
            on the default machine; any mesh device name otherwise).
    """

    def __init__(self, device: str, message: str | None = None):
        super().__init__(message or f"device {device!r} was lost")
        self.device = device


class DeadlineExceededError(ExecutionError):
    """A per-task or end-to-end execution deadline expired."""


class QueueFullError(ExecutionError):
    """The serving admission queue is full and the request was rejected.

    Raised by :meth:`repro.serving.ServingFrontend.submit` when the
    frontend runs with ``admission="reject"`` (or a blocking submit's
    timeout expires) and the model's bounded queue has no room.  Clients
    should treat this as backpressure: shed load or retry later.
    """


class CircuitOpenError(ExecutionError):
    """A model lane's circuit breaker is open and rejected the request.

    Raised by :meth:`repro.serving.ServingFrontend.submit` when the
    lane's :class:`~repro.serving.breaker.CircuitBreaker` has tripped
    after persistent request failures.  The lane rejects immediately —
    no queueing, no worker time — until the breaker's recovery timeout
    admits half-open probe requests again.

    Attributes:
        model: the lane that rejected the request.
        retry_after_s: seconds until the breaker will admit a probe.
    """

    def __init__(self, model: str, retry_after_s: float):
        super().__init__(
            f"circuit breaker for model {model!r} is open; "
            f"retry in {retry_after_s:.3f}s"
        )
        self.model = model
        self.retry_after_s = retry_after_s


class LoadShedError(ExecutionError):
    """The request was shed at admission: its deadline is unmeetable.

    Raised by :meth:`repro.serving.ServingFrontend.submit` when the
    lane's adaptive shedder predicts — from observed queue delay and
    service time — that the request cannot complete within its deadline.
    Shedding at submit time is cheaper for everyone than admitting work
    that will expire in the queue.

    Attributes:
        model: the lane that shed the request.
        deadline_s: the request's deadline budget.
        predicted_s: the shedder's predicted admission-to-completion time.
    """

    def __init__(self, model: str, deadline_s: float, predicted_s: float):
        super().__init__(
            f"request to model {model!r} shed: predicted completion in "
            f"{predicted_s:.4f}s exceeds the {deadline_s:.4f}s deadline"
        )
        self.model = model
        self.deadline_s = deadline_s
        self.predicted_s = predicted_s


class MetricsError(ReproError):
    """Invalid metrics-registry usage: bad bucket boundaries, a name
    registered twice with different types, or malformed exposition text."""


class DeviceError(ReproError):
    """Invalid device specification or cost-model query."""


class InvariantViolation(ReproError):
    """A plan/schedule structural invariant does not hold.

    Raised by :mod:`repro.testing.invariants` when a partition, placement,
    plan, or simulated execution breaks the properties the scheduler is
    supposed to guarantee (paper §IV-A/§IV-C/§IV-D).  Carries every
    violation found, not just the first.

    Attributes:
        violations: human-readable description of each broken invariant.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        head = violations[0] if violations else "unknown violation"
        extra = f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""
        super().__init__(f"invariant violation: {head}{extra}")
