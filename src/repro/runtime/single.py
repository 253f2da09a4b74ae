"""Single-device execution: the Operators-in-Sequence schedule.

This is how TVM executes a compiled model in the paper (§III-A): kernels
run synchronously in topological order on one device.  It is expressed as
a one-task :class:`~repro.runtime.plan.HeteroPlan`, so the same simulator
prices it — including host↔device transfers when the device is the GPU —
and the same unified dispatch kernel (:class:`~repro.runtime.core.
DispatchKernel` with :class:`~repro.runtime.core.InlineWorkers`) executes
it numerically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.compiler.lowering import CompiledModule
from repro.devices.machine import Machine
from repro.runtime.core import DispatchKernel, InlineWorkers
from repro.runtime.plan import HeteroPlan, Source, TaskSpec
from repro.runtime.simulator import ExecutionResult, simulate

__all__ = ["SingleDeviceResult", "single_device_plan", "run_single_device"]


@dataclass
class SingleDeviceResult(ExecutionResult):
    """Outcome of one single-device inference.

    Extends the simulator's :class:`~repro.runtime.simulator.
    ExecutionResult` (virtual ``latency``, task/transfer records, and
    ``outputs`` when inputs were supplied) with the host ``wall_time_s``
    the other executors' results carry
    (:class:`~repro.runtime.threaded.ThreadedResult`,
    :class:`~repro.runtime.resilient.ExecutionReport`).
    """

    wall_time_s: float = 0.0


def single_device_plan(module: CompiledModule, device: str) -> HeteroPlan:
    """Wrap a whole-model module as a one-task plan on ``device``."""
    task = TaskSpec(
        task_id=f"{module.graph.name}@{device}",
        device=device,
        module=module,
        sources={
            iid: Source(kind="external", ref=iid) for iid in module.input_ids
        },
    )
    outputs = [(task.task_id, i) for i in range(len(module.output_ids))]
    return HeteroPlan(tasks=[task], outputs=outputs)


def run_single_device(
    module: CompiledModule,
    device: str,
    machine: Machine,
    rng: np.random.Generator | None = None,
    inputs: Mapping[str, np.ndarray] | None = None,
    overlap: bool = False,
) -> SingleDeviceResult:
    """One inference of ``module`` entirely on ``device``.

    Timing comes from the discrete-event simulator (``overlap`` selects
    the lazy vs. double-buffered transfer discipline); when ``inputs`` are
    given the kernels also execute numerically through the unified
    dispatch kernel (inline worker strategy), so the returned ``outputs``
    go through exactly the same code path as every other executor.
    """
    began = time.perf_counter()
    plan = single_device_plan(module, device)
    sim = simulate(plan, machine, rng=rng, overlap=overlap)
    outputs = None
    if inputs is not None:
        outputs = DispatchKernel(plan, workers=InlineWorkers()).run(inputs).outputs
    return SingleDeviceResult(
        latency=sim.latency,
        tasks=sim.tasks,
        transfers=sim.transfers,
        outputs=outputs,
        wall_time_s=time.perf_counter() - began,
    )
