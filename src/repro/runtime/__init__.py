"""Runtime: plans, the unified dispatch core, executors, faults, sessions."""

from repro.runtime.core import (
    CoreResult,
    DispatchKernel,
    ExecutionEvent,
    FaultInjectionMiddleware,
    InvariantMiddleware,
    MetricsMiddleware,
    RetryMiddleware,
    RetryPolicy,
    TracingMiddleware,
    TransferGuardMiddleware,
)
from repro.runtime.faults import (
    DeviceLoss,
    FaultInjector,
    FaultPlan,
    KernelFault,
    StallFault,
    TransferFault,
)
from repro.runtime.measurement import (
    LatencyStats,
    measure_latency,
    measure_latency_batch,
)
from repro.runtime.memory import (
    DeviceMemory,
    MemoryReport,
    TensorArena,
    memory_report,
)
from repro.runtime.plan import HeteroPlan, Source, TaskSpec, single_device_plan
from repro.runtime.session import EngineSession
from repro.runtime.simulator import (
    ExecutionResult,
    KernelRecord,
    StreamResult,
    TaskRecord,
    TransferRecord,
    simulate,
    simulate_batch,
    simulate_stream,
)
from repro.runtime.threaded import ThreadedExecutor

__all__ = [
    "CoreResult",
    "DeviceLoss",
    "DispatchKernel",
    "EngineSession",
    "ExecutionEvent",
    "ExecutionResult",
    "FaultInjectionMiddleware",
    "FaultInjector",
    "FaultPlan",
    "InvariantMiddleware",
    "KernelFault",
    "MetricsMiddleware",
    "RetryMiddleware",
    "RetryPolicy",
    "StallFault",
    "TracingMiddleware",
    "TransferFault",
    "TransferGuardMiddleware",
    "ThreadedExecutor",
    "HeteroPlan",
    "KernelRecord",
    "LatencyStats",
    "Source",
    "TaskRecord",
    "TaskSpec",
    "TransferRecord",
    "measure_latency",
    "measure_latency_batch",
    "memory_report",
    "DeviceMemory",
    "MemoryReport",
    "TensorArena",
    "simulate",
    "simulate_batch",
    "single_device_plan",
    "simulate_stream",
    "StreamResult",
]
