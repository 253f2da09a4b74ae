"""Shared load generation for the throughput benchmarks and the CLI.

One home for closed-loop driving logic so the simulated stream benchmark
(``bench_ext_throughput``) and the real-thread serving benchmark
(``bench_serving_load``) cannot drift apart:

* :func:`closed_loop_burst` — replay a burst through the *simulated*
  shared-timeline stream model (:func:`repro.runtime.simulator.simulate_stream`);
* :func:`run_closed_loop` — drive a callable with ``concurrency`` real
  threads, each issuing its next request as soon as the previous one
  completes (a classic closed loop), returning wall-clock throughput;
* :func:`elementwise_chain` — a stack-safe test-scale model (elementwise
  + axis-1 reduction ops only) whose batches the serving layer can
  execute as one concatenated dispatch, making batching's throughput
  effect measurable without BLAS noise.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.devices.machine import Machine
from repro.errors import ExecutionError
from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph
from repro.runtime.plan import HeteroPlan
from repro.runtime.simulator import StreamResult, simulate_stream

__all__ = [
    "LoadResult",
    "run_closed_loop",
    "closed_loop_burst",
    "elementwise_chain",
]


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one closed-loop load run.

    Attributes:
        n_requests: requests completed successfully.
        n_errors: requests that raised (their latencies are excluded).
        wall_time_s: first-submit to last-completion wall time.
        latencies_s: per-request wall latency, in completion order.
    """

    n_requests: int
    n_errors: int
    wall_time_s: float
    latencies_s: tuple[float, ...]

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second over the whole run."""
        if self.wall_time_s <= 0:
            return float("inf")
        return self.n_requests / self.wall_time_s


def run_closed_loop(
    submit: Callable[[int], object],
    n_requests: int,
    concurrency: int,
    clock: Callable[[], float] = time.perf_counter,
) -> LoadResult:
    """Drive ``submit`` from ``concurrency`` threads, closed loop.

    Each thread claims the next request index and calls ``submit(i)``,
    issuing its next request the moment the call returns — so exactly
    ``concurrency`` requests are in flight at any time.  Exceptions from
    ``submit`` are counted as errors, not propagated.
    """
    if n_requests <= 0:
        raise ExecutionError("n_requests must be positive")
    if concurrency <= 0:
        raise ExecutionError("concurrency must be positive")
    counter = iter(range(n_requests))
    lock = threading.Lock()
    latencies: list[float] = []
    errors = [0]

    def loop() -> None:
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            began = clock()
            try:
                submit(index)
            except Exception:
                with lock:
                    errors[0] += 1
                continue
            elapsed = clock() - began
            with lock:
                latencies.append(elapsed)

    threads = [
        threading.Thread(target=loop, name=f"loadgen-{i}", daemon=True)
        for i in range(min(concurrency, n_requests))
    ]
    began = clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = clock() - began
    return LoadResult(
        n_requests=len(latencies),
        n_errors=errors[0],
        wall_time_s=wall,
        latencies_s=tuple(latencies),
    )


def closed_loop_burst(
    plan: HeteroPlan,
    machine: Machine,
    n_requests: int,
    interarrival_s: float = 0.0,
    rng=None,
) -> StreamResult:
    """Simulated closed-loop burst: ``n_requests`` through ``plan``.

    A thin façade over :func:`~repro.runtime.simulator.simulate_stream`
    (arrival interval 0 = every request queued at t=0), kept here so the
    simulated and real-thread benchmarks share one entry point.
    """
    return simulate_stream(
        plan, machine, n_requests=n_requests, interarrival_s=interarrival_s,
        rng=rng,
    )


def elementwise_chain(
    batch: int = 4, width: int = 64, depth: int = 6
) -> Graph:
    """A stack-safe test-scale model: elementwise/axis-1 ops only.

    Every op is row-independent along axis 0, so
    :func:`~repro.serving.batcher.analyze_stack_safety` approves the
    compiled plan and the serving layer can execute whole batches as one
    concatenated dispatch — the configuration the batching benchmark
    needs to measure a real throughput effect at test scale.
    """
    if depth < 1:
        raise ExecutionError(f"depth must be >= 1, got {depth}")
    b = GraphBuilder(f"elementwise_chain_b{batch}w{width}d{depth}")
    x = b.input("x", (batch, width))
    value = x
    for i in range(depth):
        value = b.op("tanh" if i % 2 == 0 else "sigmoid", value)
        value = b.op("add", value, x)
        gate = b.op("reduce_mean", value, axis=1, keepdims=True)
        value = b.op("multiply", value, gate)
    return b.build(value)
