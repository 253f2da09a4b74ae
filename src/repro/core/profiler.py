"""Compiler-aware subgraph profiler (paper §IV-B).

For each subgraph the profiler builds a micro-benchmark: the subgraph is
treated as a standalone model, pushed through the *entire* compiler
pipeline (graph-level optimization + fusion + lowering) for each target,
and timed on each device.  Profiling therefore measures the cost of the
code that will actually run — not the cost of unoptimized operators, which
is what framework profilers report and why they mislead schedulers.

Profiling is an offline, one-time cost.  Mean execution times come from
the device cost model's expectation; optionally a number of noisy runs is
sampled (the paper uses ~500) to verify the measurement is stable and to
expose variance to the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.compiler.lowering import CompiledModule
from repro.compiler.pipeline import Compiler
from repro.compiler.target import Target
from repro.core.phases import PhasedPartition
from repro.core.subgraph import SubgraphInfo
from repro.devices.base import Device
from repro.devices.machine import Machine
from repro.errors import ProfilingError
from repro.runtime.measurement import LatencyStats

__all__ = ["SubgraphProfile", "CompilerAwareProfiler"]


def device_target(device: Device) -> Target:
    """The compilation target of one mesh device (by its spec kind, so a
    ``gpu1`` Titan V compiles with the GPU backend)."""
    return Target(device.spec.kind)


@dataclass(frozen=True)
class SubgraphProfile:
    """Profiling record of one subgraph (paper Table II rows).

    Attributes:
        subgraph: the profiled subgraph.
        modules: device name -> module compiled for that device.
        mean_time: device name -> mean execution time (seconds).
        stats: device name -> sampled latency statistics (when sampling
            was requested).
        bytes_in / bytes_out: boundary activation sizes, used to reason
            about communication cost.
    """

    subgraph: SubgraphInfo
    modules: Mapping[str, CompiledModule]
    mean_time: Mapping[str, float]
    stats: Mapping[str, LatencyStats] | None
    bytes_in: float
    bytes_out: float

    def time_on(self, device: str) -> float:
        try:
            return self.mean_time[device]
        except KeyError as exc:
            raise ProfilingError(
                f"subgraph {self.subgraph.id!r} was not profiled on {device!r}"
            ) from exc

    @property
    def best_device(self) -> str:
        """The device with the smaller mean execution time."""
        return min(self.mean_time, key=lambda d: self.mean_time[d])

    @property
    def best_time(self) -> float:
        return min(self.mean_time.values())

    @property
    def worst_time(self) -> float:
        return max(self.mean_time.values())


def _module_exec_time(module: CompiledModule, device: Device) -> float:
    """Pure compute time of a module on a device (no link transfers —
    communication is the scheduler's concern, not the profiler's)."""
    return sum(device.kernel_time(k.cost) for k in module.kernels)


def _module_exec_sample(
    module: CompiledModule, device: Device, rng: np.random.Generator
) -> float:
    return sum(device.sample_kernel_time(k.cost, rng) for k in module.kernels)


@dataclass
class CompilerAwareProfiler:
    """Profiles subgraphs through the full compiler pipeline.

    Attributes:
        machine: devices to profile against.
        compiler: compiler configuration (opt level etc.).
        sample_runs: when > 0, additionally draw this many noisy samples
            per device and attach :class:`LatencyStats` (paper: 500 runs
            suffice for statistically stable measurements).
        seed: RNG seed for the sampled runs.
    """

    machine: Machine
    compiler: Compiler = field(default_factory=Compiler)
    sample_runs: int = 0
    seed: int = 0

    def profile(self, subgraph: SubgraphInfo) -> SubgraphProfile:
        """Compile and time one subgraph on every device."""
        modules: dict[str, CompiledModule] = {}
        mean_time: dict[str, float] = {}
        stats: dict[str, LatencyStats] = {}
        for device in self.machine.devices:
            dev_name = device.name
            target = device_target(device)
            try:
                module = self.compiler.compile(subgraph.graph, target)
            except Exception as exc:
                raise ProfilingError(
                    f"compiling subgraph {subgraph.id!r} for {dev_name} "
                    f"failed: {exc}"
                ) from exc
            modules[dev_name] = module
            mean_time[dev_name] = _module_exec_time(module, device)
            if self.sample_runs > 0:
                rng = np.random.default_rng(
                    np.random.SeedSequence(
                        [self.seed, abs(hash((subgraph.id, dev_name))) % 2**31]
                    )
                )
                samples = np.fromiter(
                    (
                        _module_exec_sample(module, device, rng)
                        for _ in range(self.sample_runs)
                    ),
                    dtype=np.float64,
                    count=self.sample_runs,
                )
                stats[dev_name] = LatencyStats.from_samples(samples)
        return SubgraphProfile(
            subgraph=subgraph,
            modules=modules,
            mean_time=mean_time,
            stats=stats if self.sample_runs > 0 else None,
            bytes_in=subgraph.bytes_in,
            bytes_out=subgraph.bytes_out,
        )

    def profile_partition(
        self, partition: PhasedPartition
    ) -> dict[str, SubgraphProfile]:
        """Profile every subgraph of a partition, keyed by subgraph id."""
        return {sg.id: self.profile(sg) for sg in partition.subgraphs}
