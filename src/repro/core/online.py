"""Online adaptation: re-correct the schedule when runtime behaviour drifts.

DUET's correction step exists because run time is "unpredictable"
(§IV-C); the paper applies it once, offline.  This module closes the loop
at serving time: the engine watches per-subgraph execution times of live
requests, estimates a per-device slowdown factor relative to its profiled
expectations (EWMA-smoothed), and when a device drifts past a threshold —
a co-tenant stealing CPU cores, GPU thermal throttling — it re-profiles
against its updated machine belief and re-runs the scheduling pipeline.

The serving loop stays latency-faithful: adaptation decisions use only
observations an executor would really have (task start/finish times).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.pipeline import Compiler
from repro.core.partition import partition_graph
from repro.core.profiler import CompilerAwareProfiler
from repro.core.scheduler import GreedyCorrectionScheduler
from repro.devices.machine import Machine, scale_device
from repro.errors import SchedulingError
from repro.ir.graph import Graph
from repro.runtime.plan import HeteroPlan
from repro.runtime.simulator import simulate

__all__ = ["ServeRecord", "AdaptiveDuetEngine"]


@dataclass(frozen=True)
class ServeRecord:
    """Outcome of serving one request."""

    index: int
    latency: float
    adapted: bool
    assumed_slowdown: dict[str, float]
    placement: dict[str, str]


@dataclass
class AdaptiveDuetEngine:
    """DUET with a runtime drift monitor.

    Attributes:
        base_machine: the machine as profiled offline (believed nominal).
        drift_threshold: relative deviation of the EWMA observed/expected
            time ratio that triggers re-optimization (e.g. 0.25 = 25%).
        ewma_alpha: smoothing factor of the drift estimator.
        cooldown: minimum requests between adaptations (prevents thrash).
    """

    base_machine: Machine
    drift_threshold: float = 0.25
    ewma_alpha: float = 0.25
    cooldown: int = 10
    compiler: Compiler = field(default_factory=Compiler)

    graph: Graph | None = field(default=None, init=False)
    plan: HeteroPlan | None = field(default=None, init=False)
    placement: dict[str, str] = field(default_factory=dict, init=False)
    assumed_slowdown: dict[str, float] = field(
        default_factory=lambda: {"cpu": 1.0, "gpu": 1.0}, init=False
    )
    _ewma_ratio: dict[str, float] = field(
        default_factory=lambda: {"cpu": 1.0, "gpu": 1.0}, init=False
    )
    # Expected per-task times under the current machine belief; populated
    # by _reschedule() and required by serve_one()'s drift monitor.
    _expected: dict[str, float] = field(default_factory=dict, init=False)
    _since_adapt: int = field(default=0, init=False)
    _served: int = field(default=0, init=False)
    adaptations: int = field(default=0, init=False)

    # ------------------------------------------------------------------

    def _believed_machine(self) -> Machine:
        return Machine(
            devices=[
                scale_device(dev, self.assumed_slowdown[dev.name])
                for dev in self.base_machine.devices
            ],
            links=self.base_machine.links,
        )

    def _reschedule(self) -> None:
        assert self.graph is not None
        machine = self._believed_machine()
        partition = partition_graph(self.graph)
        profiles = CompilerAwareProfiler(
            machine=machine, compiler=self.compiler
        ).profile_partition(partition)
        scheduler = GreedyCorrectionScheduler(machine=machine)
        result = scheduler.schedule(self.graph, partition, profiles)
        self.plan = result.plan
        self.placement = result.placement
        # Expected per-task times under the current belief, for monitoring.
        self._expected = {}
        for task in result.plan.tasks:
            device = machine.device(task.device)
            self._expected[task.task_id] = sum(
                device.kernel_time(k.cost) for k in task.module.kernels
            )

    def start(self, graph: Graph) -> None:
        """Optimize ``graph`` under nominal conditions and begin serving."""
        self.graph = graph
        self.assumed_slowdown = {"cpu": 1.0, "gpu": 1.0}
        self._ewma_ratio = {"cpu": 1.0, "gpu": 1.0}
        self._expected = {}
        self._reschedule()

    # ------------------------------------------------------------------

    def serve_one(
        self,
        true_machine: Machine | None = None,
        rng: np.random.Generator | None = None,
    ) -> ServeRecord:
        """Serve one request on the (possibly drifted) true machine.

        Args:
            true_machine: the machine as it actually behaves right now;
                defaults to the nominal one.
            rng: optional noise sampling.
        """
        if self.plan is None or self.graph is None or not self._expected:
            # Also catches misuse like assigning ``plan`` directly: the
            # drift monitor is meaningless without the expectations that
            # start() -> _reschedule() computes.
            raise SchedulingError("call start(graph) before serve_one()")
        true_machine = true_machine or self.base_machine
        result = simulate(self.plan, true_machine, rng=rng)
        self._served += 1
        self._since_adapt += 1

        # Update per-device drift estimates from observed task durations.
        observed: dict[str, list[tuple[float, float]]] = {"cpu": [], "gpu": []}
        for rec in result.tasks:
            expected = self._expected.get(rec.task_id, 0.0)
            if expected > 1e-7:  # ignore negligible tasks: noisy ratios
                observed[rec.device].append((rec.duration, expected))
        for dev, pairs in observed.items():
            if not pairs:
                continue
            total_obs = sum(o for o, _ in pairs)
            total_exp = sum(e for _, e in pairs)
            ratio = total_obs / total_exp
            self._ewma_ratio[dev] += self.ewma_alpha * (
                ratio - self._ewma_ratio[dev]
            )

        adapted = False
        if self._since_adapt >= self.cooldown:
            drifted = [
                dev
                for dev, r in self._ewma_ratio.items()
                if abs(r - 1.0) > self.drift_threshold
            ]
            if drifted:
                for dev in drifted:
                    self.assumed_slowdown[dev] *= self._ewma_ratio[dev]
                    self._ewma_ratio[dev] = 1.0
                self._reschedule()
                self.adaptations += 1
                self._since_adapt = 0
                adapted = True

        return ServeRecord(
            index=self._served,
            latency=result.latency,
            adapted=adapted,
            assumed_slowdown=dict(self.assumed_slowdown),
            placement=dict(self.placement),
        )
