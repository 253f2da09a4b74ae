"""Serving test subjects shared by the test suites and the benchmarks.

* :func:`elementwise_chain` — a stack-safe test-scale model whose batches
  the serving layer can execute as one concatenated dispatch, making
  batching's throughput effect measurable without BLAS noise;
* :func:`mixed_serving_opt` — an optimization whose plan spans every
  device, so a device loss always hits a request.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ExecutionError
from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph

__all__ = ["elementwise_chain", "mixed_serving_opt"]


def elementwise_chain(
    batch: int = 4, width: int = 64, depth: int = 6
) -> Graph:
    """A stack-safe test-scale model: elementwise/axis-1 ops only.

    Every op is row-independent along axis 0, so
    :func:`~repro.serving.batcher.analyze_stack_safety` approves the
    compiled plan and the serving layer can execute whole batches as one
    concatenated dispatch.
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


def mixed_serving_opt(engine, graph):
    """An optimization whose plan spans more than one device.

    The optimizer may legitimately place a tiny model on one device —
    but a device-loss run that never touches the device being killed
    proves nothing, so force a round-robin placement (the differential
    oracle guarantees any valid placement stays bit-identical).
    """
    from repro.core import CompilerAwareProfiler, partition_graph
    from repro.core.placement import build_hetero_plan
    from repro.core.schedulers import round_robin_placement

    opt = engine.optimize(graph)
    devices = {task.device for task in opt.plan.tasks}
    if len(devices) > 1:
        return opt
    partition = partition_graph(graph)
    profiles = CompilerAwareProfiler(machine=engine.machine).profile_partition(
        partition
    )
    devices = engine.machine.device_names
    placement = round_robin_placement(partition, devices)
    plan = build_hetero_plan(
        graph, partition, profiles, placement, devices=devices
    )
    return dataclasses.replace(opt, plan=plan, fallback_device=None)
