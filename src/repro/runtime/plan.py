"""Heterogeneous execution plans.

A plan is the executor's input (paper Fig. 9): a set of compiled subgraph
tasks, each pinned to a device, wired together by data edges.  Tensors are
produced on the producer's device; consuming them from a different device
implies a link transfer, which the simulator prices and the scheduler's
correction step optimizes against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.compiler.lowering import CompiledModule
from repro.errors import SchedulingError

__all__ = ["Source", "TaskSpec", "HeteroPlan", "single_device_plan"]


@dataclass(frozen=True)
class Source:
    """Where a task input comes from.

    Attributes:
        kind: ``"external"`` (a model input, resident on the host) or
            ``"task"`` (another task's output).
        ref: the external input name, or the producing task id.
        output_index: which output of the producing task (tasks may expose
            several boundary tensors).
    """

    kind: str
    ref: str
    output_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("external", "task"):
            raise SchedulingError(f"invalid source kind {self.kind!r}")


@dataclass(frozen=True)
class TaskSpec:
    """One placed, compiled subgraph.

    Attributes:
        task_id: unique id within the plan.
        device: a mesh device placement name (``"cpu"``/``"gpu"`` on the
            default machine).  The plan itself only requires a non-empty
            name; membership in a concrete machine's device set is
            checked when the plan meets that machine (assembly,
            simulation, :func:`~repro.testing.invariants.check_plan`).
        module: the subgraph compiled for that device.
        sources: module input id -> where its value comes from.
        phase_index: the partition phase this task belongs to (display/
            priority metadata).
    """

    task_id: str
    device: str
    module: CompiledModule
    sources: Mapping[str, Source]
    phase_index: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.device, str) or not self.device:
            raise SchedulingError(f"invalid device {self.device!r}")
        missing = set(self.module.input_ids) - set(self.sources)
        if missing:
            raise SchedulingError(
                f"task {self.task_id!r} has unwired inputs: {sorted(missing)}"
            )


@dataclass
class HeteroPlan:
    """A complete heterogeneous execution plan.

    Attributes:
        tasks: tasks in a topological (dependency-respecting) order — this
            is also the priority order workers use when several tasks are
            runnable.
        outputs: the model outputs as (task_id, output_index) pairs.
    """

    tasks: list[TaskSpec]
    outputs: list[tuple[str, int]]

    def __post_init__(self) -> None:
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise SchedulingError("duplicate task ids in plan")
        seen: set[str] = set()
        for task in self.tasks:
            for src in task.sources.values():
                if src.kind == "task" and src.ref not in seen:
                    raise SchedulingError(
                        f"task {task.task_id!r} depends on {src.ref!r} which "
                        "does not precede it in the plan order"
                    )
            seen.add(task.task_id)
        for tid, _idx in self.outputs:
            if tid not in seen:
                raise SchedulingError(f"plan output references unknown task {tid!r}")

    def task(self, task_id: str) -> TaskSpec:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise SchedulingError(f"unknown task {task_id!r}")

    def devices_used(self) -> set[str]:
        return {t.device for t in self.tasks}


def single_device_plan(module: CompiledModule, device: str) -> HeteroPlan:
    """Wrap a whole-model module as a one-task plan on ``device``.

    This is how TVM executes a compiled model in the paper (§III-A):
    kernels run in topological order on one device.  The simulator prices
    it (host↔device transfers included off-host) like any other plan.
    """
    task = TaskSpec(
        task_id=f"{module.graph.name}@{device}",
        device=device,
        module=module,
        sources={iid: Source(kind="external", ref=iid) for iid in module.input_ids},
    )
    outputs = [(task.task_id, i) for i in range(len(module.output_ids))]
    return HeteroPlan(tasks=[task], outputs=outputs)
