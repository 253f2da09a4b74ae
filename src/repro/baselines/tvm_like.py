"""TVM-like baseline: fully optimized, single-device, operators-in-sequence.

This is the paper's strongest baseline (§VI-A "Comparison framework"):
the full graph-level optimization + fusion pipeline, executed synchronously
in topological order on one device.  ``TVM-CPU`` and ``TVM-GPU`` in the
figures are exactly this executor on the two devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.lowering import CompiledModule
from repro.compiler.pipeline import Compiler
from repro.compiler.target import CPU_TARGET, GPU_TARGET
from repro.devices.machine import Machine, default_machine
from repro.errors import ExecutionError
from repro.ir.graph import Graph
from repro.runtime.measurement import LatencyStats, measure_latency_batch
from repro.runtime.plan import single_device_plan
from repro.runtime.simulator import ExecutionResult, simulate, simulate_batch

__all__ = ["TVMLikeBaseline"]


@dataclass
class TVMLikeBaseline:
    """Compile with full optimization; execute on a single device."""

    device: str  # "cpu" or "gpu"
    machine: Machine = field(default_factory=default_machine)
    compiler: Compiler = field(default_factory=Compiler)

    def __post_init__(self) -> None:
        if self.device not in ("cpu", "gpu"):
            raise ExecutionError(f"invalid device {self.device!r}")

    @property
    def name(self) -> str:
        return f"TVM-{self.device.upper()}"

    def compile(self, graph: Graph) -> CompiledModule:
        target = GPU_TARGET if self.device == "gpu" else CPU_TARGET
        return self.compiler.compile(graph, target)

    def run(
        self,
        module: CompiledModule,
        rng: np.random.Generator | None = None,
        inputs=None,
    ) -> ExecutionResult:
        return simulate(
            single_device_plan(module, self.device), self.machine, rng=rng,
            inputs=inputs,
        )

    def latency(self, graph: Graph) -> float:
        """Mean end-to-end latency (seconds)."""
        return self.run(self.compile(graph)).latency

    def latency_stats(
        self, graph: Graph, n_runs: int = 5000, warmup: int = 50, seed: int = 0
    ) -> LatencyStats:
        module = self.compile(graph)
        plan = single_device_plan(module, self.device)
        return measure_latency_batch(
            lambda rng, n: simulate_batch(plan, self.machine, rng, n),
            n_runs=n_runs,
            warmup=warmup,
            seed=seed,
        )
