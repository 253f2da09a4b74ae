"""Everything a run derives from ``--seed``: input tensors, the choice of
input per request, and open-loop arrival schedules — plus the one graph
the benchmark builds itself.  Same seed, same bytes."""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.ir import Graph, GraphBuilder, make_inputs

__all__ = ["rng_for", "make_feeds", "arrival_schedule", "chain_graph"]


def rng_for(seed: int, *labels: str) -> np.random.Generator:
    """A generator keyed by the seed and stable labels (``hash()`` is
    salted per process, so labels go through CRC-32)."""
    keys = [zlib.crc32(label.encode()) for label in labels]
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def make_feeds(graph: Graph, seed: int, *labels: str) -> dict[str, np.ndarray]:
    """The interpreter's own ``make_inputs`` (integer inputs stay in their
    declared range), seeded from the run's seed and the labels."""
    return make_inputs(graph, seed=int(rng_for(seed, *labels).integers(2**62)))


def arrival_schedule(
    rng: np.random.Generator, steps: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson arrivals over consecutive ``(rate_rps, duration_s)`` steps.

    Returns ``(due, step)``: each request's due time in seconds from the
    start of the run, ascending, and the index of the step it falls in.
    """
    due: list[np.ndarray] = []
    step: list[np.ndarray] = []
    origin = 0.0
    for index, (rate, duration) in enumerate(steps):
        # Draw comfortably more gaps than the step can hold, then cut.
        n = int(rate * duration * 1.5) + 64
        times = origin + np.cumsum(rng.exponential(1.0 / rate, size=n))
        times = times[times < origin + duration]
        due.append(times)
        step.append(np.full(times.shape, index, dtype=np.int64))
        origin += duration
    return np.concatenate(due), np.concatenate(step)


def chain_graph(batch: int = 4, width: int = 64, depth: int = 6) -> Graph:
    """A stack-safe elementwise chain: every op is row-independent along
    axis 0, so the serving layer may execute a whole batch of requests as
    one concatenated dispatch.  Kernel time is tens of microseconds, which
    leaves admission, queueing and batching as the cost of a request."""
    b = GraphBuilder(f"perf_chain_b{batch}w{width}d{depth}")
    x = b.input("x", (batch, width))
    value = x
    for i in range(depth):
        value = b.op("tanh" if i % 2 == 0 else "sigmoid", value)
        value = b.op("add", value, x)
        gate = b.op("reduce_mean", value, axis=1, keepdims=True)
        value = b.op("multiply", value, gate)
    return b.build(value)
