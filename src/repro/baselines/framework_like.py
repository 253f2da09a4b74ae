"""Framework-like baselines: PyTorch / TensorFlow operators-in-sequence.

DL frameworks (paper §III-A) execute one operator at a time with *no*
cross-operator fusion, paying interpreter/dispatch overhead on every
operator launch.  The model here: compile at opt level 1 (structural
cleanups only) with fusion disabled, then charge a per-launch framework
overhead on top of each kernel's device time.

The per-op overheads are the empirically familiar magnitudes: PyTorch's
eager dispatcher costs ~15 µs per op; TensorFlow 1.x session executors
cost ~25 µs per op.  Exact values only shift the frameworks' absolute
bars — every paper claim about them ("DUET is 2.1–18.8x faster") is about
orders, which survive any reasonable choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.lowering import CompiledModule
from repro.compiler.pipeline import compile_graph
from repro.compiler.target import CPU_TARGET, GPU_TARGET
from repro.devices.machine import Machine, default_machine
from repro.errors import ExecutionError
from repro.ir.graph import Graph
from repro.ir.ops import OpKind
from repro.runtime.measurement import LatencyStats, measure_latency_batch

__all__ = ["FrameworkBaseline", "pytorch_like", "tensorflow_like"]


@dataclass
class FrameworkBaseline:
    """An unfused, per-op-overhead, single-device executor.

    Attributes:
        framework: display name ("PyTorch"/"TensorFlow").
        device: execution device.
        per_op_overhead_s: host-side dispatch cost per kernel launch.
        cpu_recurrent_slowdown: extra factor on recurrent kernels when
            executing on CPU.  Framework CPU RNN cells dispatch unfused
            per-gate GEMMs and elementwise ops each timestep; DeepCPU
            (the paper's ref [47]) measured ~10x headroom over TensorFlow
            CPU RNNs, so a 3-4x penalty is conservative.  GPU RNNs go
            through cuDNN and get no penalty.
        machine: hardware model.
    """

    framework: str
    device: str
    per_op_overhead_s: float
    cpu_recurrent_slowdown: float = 1.0
    machine: Machine = field(default_factory=default_machine)

    def __post_init__(self) -> None:
        if self.device not in ("cpu", "gpu"):
            raise ExecutionError(f"invalid device {self.device!r}")

    @property
    def name(self) -> str:
        return f"{self.framework}-{self.device.upper()}"

    def compile(self, graph: Graph) -> CompiledModule:
        target = GPU_TARGET if self.device == "gpu" else CPU_TARGET
        # opt_level=1 keeps the graph numerically identical but removes
        # no-op structure; fuse=False = one kernel per operator.
        return compile_graph(graph, target, opt_level=1, fuse=False).module

    def _one_latency(
        self, module: CompiledModule, rng: np.random.Generator | None
    ) -> float:
        device = self.machine.device(self.device)
        total = 0.0
        for kernel in module.kernels:
            if rng is None:
                t = device.kernel_time(kernel.cost)
            else:
                t = device.sample_kernel_time(kernel.cost, rng)
            if self.device == "cpu" and kernel.cost.kind is OpKind.RECURRENT:
                t *= self.cpu_recurrent_slowdown
            # Dispatch overhead is paid per serially-dependent launch round
            # (an unrolled RNN dispatches every step through the framework).
            total += t + self.per_op_overhead_s * kernel.cost.sequential_steps
        if self.device == "gpu":
            link = self.machine.link(self.machine.host, self.device)
            in_bytes = sum(
                module.graph.node(i).ty.size_bytes for i in module.input_ids
            )
            out_bytes = sum(t.size_bytes for t in module.graph.output_types())
            if rng is None:
                total += link.transfer_time(in_bytes) + link.transfer_time(out_bytes)
            else:
                total += link.sample_transfer_time(
                    in_bytes, rng
                ) + link.sample_transfer_time(out_bytes, rng)
        return total

    def _latency_batch(
        self, module: CompiledModule, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        """Vectorized :meth:`_one_latency`: ``n`` sampled runs at once.

        Draw order matches the scalar path event-for-event (kernels in
        module order, then the two GPU transfers), so ``n == 1``
        reproduces a single scalar run bit-for-bit.
        """
        device = self.machine.device(self.device)
        total = np.zeros(n)
        for kernel in module.kernels:
            t = device.sample_kernel_time_batch(kernel.cost, rng, n)
            if self.device == "cpu" and kernel.cost.kind is OpKind.RECURRENT:
                t = t * self.cpu_recurrent_slowdown
            total += t + self.per_op_overhead_s * kernel.cost.sequential_steps
        if self.device == "gpu":
            link = self.machine.link(self.machine.host, self.device)
            in_bytes = sum(
                module.graph.node(i).ty.size_bytes for i in module.input_ids
            )
            out_bytes = sum(t.size_bytes for t in module.graph.output_types())
            total += link.sample_transfer_time_batch(in_bytes, rng, n)
            total += link.sample_transfer_time_batch(out_bytes, rng, n)
        return total

    def latency(self, graph: Graph) -> float:
        """Mean end-to-end latency (seconds)."""
        return self._one_latency(self.compile(graph), rng=None)

    def latency_stats(
        self, graph: Graph, n_runs: int = 5000, warmup: int = 50, seed: int = 0
    ) -> LatencyStats:
        module = self.compile(graph)
        return measure_latency_batch(
            lambda rng, n: self._latency_batch(module, rng, n),
            n_runs=n_runs,
            warmup=warmup,
            seed=seed,
        )


def pytorch_like(device: str, machine: Machine | None = None) -> FrameworkBaseline:
    """PyTorch eager execution: ~15 µs dispatch per op, slow CPU RNN cells."""
    return FrameworkBaseline(
        framework="PyTorch",
        device=device,
        per_op_overhead_s=15e-6,
        cpu_recurrent_slowdown=3.0,
        machine=machine or default_machine(),
    )


def tensorflow_like(device: str, machine: Machine | None = None) -> FrameworkBaseline:
    """TensorFlow 1.x session execution: ~25 µs per op, slower CPU RNN cells."""
    return FrameworkBaseline(
        framework="TensorFlow",
        device=device,
        per_op_overhead_s=25e-6,
        cpu_recurrent_slowdown=4.0,
        machine=machine or default_machine(),
    )
