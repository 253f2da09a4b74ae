"""Multi-tenant serving: admission control, dynamic batching, metrics.

The front door of the engine (ROADMAP north-star): a
:class:`ServingFrontend` owns per-model session pools behind bounded
admission queues, coalesces compatible requests into dynamic batches —
executing stack-safe plans as one concatenated dispatch, everything else
request by request, both bit-identical to a solo
:class:`~repro.runtime.session.EngineSession` — and reports what the
engine is doing through a :class:`MetricsRegistry` with Prometheus-style
text exposition.

A resilience layer keeps the lanes healthy under faults: health-checked
worker slots that quarantine and rebuild onto surviving devices on
device loss (:mod:`repro.serving.health`), per-model circuit breakers
(:mod:`repro.serving.breaker`), and deadline-aware admission with
adaptive load shedding.
"""

from repro.serving.batcher import (
    STACK_SAFE_AXIS_OPS,
    STACK_SAFE_ELEMENTWISE,
    BatchConfig,
    StackDecision,
    analyze_stack_safety,
    collect_batch,
    request_signature,
    run_stacked,
)
from repro.serving.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.serving.frontend import (
    ServeFuture,
    ServeResult,
    ServingConfig,
    ServingFrontend,
)
from repro.serving.health import (
    SLOT_DEGRADED,
    SLOT_HEALTHY,
    SLOT_QUARANTINED,
    SLOT_STATE_CODES,
    LaneHealth,
    SlotHealth,
    TenantAwareShedder,
)
from repro.serving.tenants import (
    DEFAULT_TENANT,
    PRIORITY_CLASSES,
    PRIORITY_TIERS,
    TenantConfig,
    TenantRegistry,
)
from repro.serving.wfq import WFQAdmissionQueue
from repro.serving.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    parse_exposition,
    validate_buckets,
)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DEFAULT_TENANT",
    "PRIORITY_CLASSES",
    "PRIORITY_TIERS",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_CODES",
    "LATENCY_BUCKETS_S",
    "SLOT_DEGRADED",
    "SLOT_HEALTHY",
    "SLOT_QUARANTINED",
    "SLOT_STATE_CODES",
    "STACK_SAFE_AXIS_OPS",
    "STACK_SAFE_ELEMENTWISE",
    "BatchConfig",
    "BreakerConfig",
    "CircuitBreaker",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "LaneHealth",
    "MetricsRegistry",
    "ServeFuture",
    "ServeResult",
    "ServingConfig",
    "ServingFrontend",
    "SlotHealth",
    "StackDecision",
    "TenantAwareShedder",
    "TenantConfig",
    "TenantRegistry",
    "WFQAdmissionQueue",
    "analyze_stack_safety",
    "collect_batch",
    "parse_exposition",
    "request_signature",
    "run_stacked",
    "validate_buckets",
]
