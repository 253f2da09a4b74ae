"""Differential multi-executor oracle.

DUET's §IV-D transparency claim — scheduling must never change what a
model computes — is checked here by running one graph through every live
execution path and demanding exact agreement:

* the :mod:`repro.ir.interpreter` (semantic ground truth);
* ``single:<device>``: the whole-model module as a one-task plan
  (:func:`~repro.runtime.plan.single_device_plan`) through
  :func:`~repro.runtime.simulator.simulate`, on every device;
* the discrete-event simulator executing the scheduled heterogeneous
  plan numerically (its timeline is additionally checked against the
  execution invariants, and its predicted completion order must
  linearize the task DAG) — under both the lazy and the double-buffered
  ``overlap=True`` transfer disciplines, which must be bit-identical
  (overlap changes the virtual clock, never the data);
* the :class:`~repro.runtime.threaded.ThreadedExecutor` (real threads);
* the :class:`~repro.runtime.resilient.ResilientExecutor` with no faults
  injected (the recovery machinery must be a no-op on healthy runs);
* the unified :class:`~repro.runtime.core.DispatchKernel` driven
  directly with the inline worker strategy and an arena — the
  configuration :class:`~repro.runtime.session.EngineSession` serves
  repeated requests with;
* the same kernel's :meth:`~repro.runtime.core.DispatchKernel.run`
  given an always-true ``should_preempt`` predicate, forced
  to suspend at **every** plan phase boundary with an interloping
  full dispatch clobbering the shared arena between segments — the
  serving frontend's phase-boundary preemption path, which must resume
  from its checkpointed frontier bit-identically.

:data:`EXECUTOR_NAMES` lists every arm; the plan arms (``simulator`` to
``preempt``) also run on the forced placement under an ``@alt`` suffix.

Outputs are compared element-exactly (same shape, same dtype, ``==``
everywhere) — all paths run the same NumPy kernels in dependency order,
so there is no tolerance to hide behind.  Plans are exercised both under
the scheduler's own placement and under a forced alternating placement
that guarantees cross-device edges, so the transfer paths are always
covered even when the scheduler would keep a small graph on one device.

Three additional arms run the graph through the **native C backend**.
``native`` (direct module run) and ``native:threaded`` (the same module
under real worker threads) compile with the default tile *pinned*, so
every group the renderer accepts runs rendered C whether or not it
would win its contest; that keeps each renderer under test where it
loses.  ``native:selected`` compiles the way an engine does, contest on,
so a module mixing C and NumPy kernels is checked on every run.
Their comparison follows the two-class policy of
:mod:`repro.compiler.native.policy`: when every compiled kernel is
order-preserving the comparison stays bit-exact; when any kernel
reassociates (GEMM/reductions) or calls libm transcendentals, outputs
must agree within the graph's summed per-op ULP budget.  When no system
C compiler exists the arms are *skipped with a visible marker* (the
outcome's ``skipped`` flag, surfaced in the report summary) rather than
silently passing.  ``run_differential(backend="native")`` additionally
swaps the pinned native compiler into every arm — single-device,
simulator, threaded, serving core — so the whole scheduling pipeline is
exercised over ctypes-dispatched kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.compiler.pipeline import Compiler
from repro.core.partition import partition_graph
from repro.core.phases import PhasedPartition
from repro.core.placement import build_hetero_plan
from repro.core.profiler import CompilerAwareProfiler, device_target
from repro.core.scheduler import GreedyCorrectionScheduler
from repro.core.schedulers import round_robin_placement
from repro.devices.machine import Machine, default_machine
from repro.errors import ReproError
from repro.ir.graph import Graph
from repro.ir.interpreter import make_inputs, run_graph
from repro.runtime.core import DispatchKernel, InlineWorkers, PhaseCheckpoint
from repro.runtime.memory import TensorArena
from repro.runtime.plan import single_device_plan
from repro.runtime.resilient import ResilientExecutor
from repro.runtime.simulator import simulate
from repro.runtime.threaded import ThreadedExecutor
from repro.testing.invariants import (
    check_execution,
    check_placement,
    check_task_order,
    validate_schedule,
)

__all__ = [
    "ExecutorOutcome",
    "DifferentialReport",
    "pinned_native_compiler",
    "run_differential",
]

#: The execution paths the oracle cross-checks (plus the interpreter).
EXECUTOR_NAMES = (
    "single:cpu",
    "single:gpu",
    "native",
    "native:threaded",
    "native:selected",
    "simulator",
    "simulator:overlap",
    "threaded",
    "resilient",
    "core",
    "preempt",
)

PlacementTransform = Callable[[dict[str, str], PhasedPartition], dict[str, str]]


@dataclass
class ExecutorOutcome:
    """What one execution path produced for the fuzzed graph."""

    name: str
    outputs: list[np.ndarray] | None = None
    task_order: list[str] | None = None
    error: str | None = None
    #: Arm could not run in this environment (e.g. native arms without a
    #: C compiler).  Skips are surfaced in the report summary, never
    #: silently counted as agreement.
    skipped: bool = False
    #: The compiled module a direct-run native arm executed, so a test
    #: can see which backend each of its kernels ended up on.
    module: object | None = None


@dataclass
class DifferentialReport:
    """Outcome of one differential run.

    ``divergences`` are output mismatches between an executor and the
    interpreter; ``violations`` are broken structural invariants.  A
    graph *conforms* when both lists are empty.
    """

    graph: Graph
    placement: dict[str, str] = field(default_factory=dict)
    divergences: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    outcomes: dict[str, ExecutorOutcome] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.violations

    @property
    def problems(self) -> list[str]:
        """All failures, divergences first."""
        return list(self.divergences) + list(self.violations)

    @property
    def skipped_arms(self) -> list[str]:
        """Arms that could not run in this environment."""
        return [n for n, o in self.outcomes.items() if o.skipped]

    def summary(self) -> str:
        skipped = self.skipped_arms
        marker = f" [SKIPPED: {', '.join(skipped)} — no C compiler]" if skipped else ""
        if self.ok:
            ran = len(self.outcomes) - len(skipped)
            return f"{self.graph.name}: OK ({ran} execution paths agree){marker}"
        lines = [f"{self.graph.name}: FAILED{marker}"]
        lines += [f"  divergence: {d}" for d in self.divergences]
        lines += [f"  invariant:  {v}" for v in self.violations]
        return "\n".join(lines)


def _compare(name: str, got, ref, ulp_budget: float = 0.0) -> list[str]:
    """Output comparison against the interpreter reference.

    Exact by default.  A positive ``ulp_budget`` (native arms whose
    modules contain reassociated/transcendental kernels) admits
    elementwise drift up to the budget; shape and dtype always match
    exactly, and non-finite values must agree exactly.
    """
    if got is None:
        return [f"{name}: produced no outputs"]
    if len(got) != len(ref):
        return [f"{name}: {len(got)} outputs, interpreter produced {len(ref)}"]
    msgs = []
    for i, (a, b) in enumerate(zip(got, ref)):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            msgs.append(
                f"{name}: output {i} shape {a.shape} != reference {b.shape}"
            )
        elif a.dtype != b.dtype:
            msgs.append(
                f"{name}: output {i} dtype {a.dtype} != reference {b.dtype}"
            )
        elif not np.array_equal(a, b):
            if ulp_budget > 0.0:
                from repro.compiler.native.policy import max_ulp_diff

                ulp = max_ulp_diff(a, b)
                if ulp <= ulp_budget:
                    continue
                msgs.append(
                    f"{name}: output {i} drifts {ulp:.0f} ULP from the "
                    f"interpreter (budget {ulp_budget:.0f})"
                )
                continue
            with np.errstate(invalid="ignore"):
                delta = float(np.max(np.abs(a.astype(np.float64) - b)))
            msgs.append(
                f"{name}: output {i} diverges from the interpreter "
                f"(max abs diff {delta:.3e})"
            )
    return msgs


def _module_budget(module) -> float:
    """ULP tolerance for comparing one compiled module's outputs to the
    interpreter: zero (exact) when every kernel is order-preserving,
    else the module graph's summed per-op budget."""
    if all(k.exact for k in module.kernels):
        return 0.0
    from repro.compiler.native.policy import graph_ulp_budget

    return graph_ulp_budget(module.graph)


def _plan_budget(plan) -> float:
    """Summed ULP tolerance over a heterogeneous plan's task modules."""
    return sum(_module_budget(task.module) for task in plan.tasks)


def pinned_native_compiler() -> Compiler:
    """The compiler of every native arm but ``native:selected``: the
    default tile pinned, so rendered C runs wherever the renderer accepts
    the group, with no contest."""
    from repro.compiler.native import NativeOptions
    from repro.compiler.native.renderer import DEFAULT_TILE

    return Compiler(backend="native", native=NativeOptions(tile=DEFAULT_TILE))


def run_differential(
    graph: Graph,
    machine: Machine | None = None,
    input_seed: int = 0,
    param_seed: int = 0,
    placement_transform: PlacementTransform | None = None,
    cross_device: bool = True,
    single_device: bool = True,
    backend: str = "numpy",
) -> DifferentialReport:
    """Run ``graph`` through every execution path and cross-check.

    Args:
        graph: the model under test.
        machine: simulated hardware; a noiseless default machine when
            omitted (timings deterministic, numerics unaffected either way).
        input_seed / param_seed: seeds for the shared inputs/parameters.
        placement_transform: optional mutation applied to the scheduled
            placement before plan construction — the hook the
            mutation-detection tests use to inject scheduler bugs.  The
            invariant validator must catch anything illegal it produces.
        cross_device: also exercise a forced alternating placement so
            transfer paths are covered even when the scheduler keeps the
            graph on one device.
        single_device: include the compiled single-device runtime arms.
        backend: kernel backend for every compiled arm (``"numpy"`` or
            ``"native"``).  With ``"native"`` comparisons follow the
            two-class ULP policy; inter-executor checks stay bit-exact
            (the same compiled kernels are deterministic everywhere).
    """
    machine = machine or default_machine(noisy=False)
    devices = machine.device_names
    host = machine.host
    report = DifferentialReport(graph=graph)

    feeds = make_inputs(graph, seed=input_seed)
    ref = run_graph(graph, feeds, seed=param_seed)

    def attempt(name: str, fn) -> ExecutorOutcome:
        outcome = ExecutorOutcome(name=name)
        try:
            fn(outcome)
        except ReproError as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
            report.divergences.append(f"{name}: raised {outcome.error}")
        report.outcomes[name] = outcome
        return outcome

    from repro.compiler.native import native_available

    native_compiler = pinned_native_compiler()
    compiler = native_compiler if backend == "native" else Compiler()
    if single_device:
        for dev in machine.devices:

            def run_single(outcome, device=dev.name, target=device_target(dev)):
                module = compiler.compile(graph, target)
                result = simulate(
                    single_device_plan(module, device), machine, inputs=feeds
                )
                outcome.outputs = result.outputs
                report.divergences += _compare(
                    outcome.name, result.outputs, ref, _module_budget(module)
                )

            attempt(f"single:{dev.name}", run_single)

    # Dedicated native-backend arms: direct module execution, and the
    # same module under real worker threads (ctypes drops the GIL inside
    # kernels, so this exercises genuinely concurrent native dispatch).
    # Visibly skipped — never silently green — without a C compiler.
    host_dev = machine.devices[0]

    def run_native(outcome, compiler=native_compiler):
        if not native_available():
            outcome.skipped = True
            return
        module = compiler.compile(graph, device_target(host_dev))
        outcome.module = module
        outputs = module.run(feeds)
        outcome.outputs = outputs
        report.divergences += _compare(
            outcome.name, outputs, ref, _module_budget(module)
        )

    def run_native_threaded(outcome):
        if not native_available():
            outcome.skipped = True
            return
        module = native_compiler.compile(graph, device_target(host_dev))
        plan = single_device_plan(module, host_dev.name)
        result = ThreadedExecutor(plan).run(feeds)
        outcome.outputs = result.outputs
        report.divergences += _compare(
            outcome.name, result.outputs, ref, _module_budget(module)
        )
        # Same kernels as the direct native arm: bit-identical, always.
        direct = report.outcomes.get("native")
        if direct is not None and direct.outputs is not None:
            if result.outputs is None or any(
                not np.array_equal(a, b)
                for a, b in zip(direct.outputs, result.outputs)
            ):
                report.divergences.append(
                    f"{outcome.name}: threaded native execution is not "
                    "bit-identical to direct native execution"
                )

    attempt("native", run_native)
    attempt("native:threaded", run_native_threaded)
    attempt(
        "native:selected",
        lambda outcome: run_native(outcome, Compiler(backend="native")),
    )

    # Partition, profile, schedule — the real pipeline under test.
    try:
        partition = partition_graph(graph)
        profiles = CompilerAwareProfiler(
            machine=machine, compiler=compiler
        ).profile_partition(partition)
        schedule = GreedyCorrectionScheduler(machine=machine).schedule(
            graph, partition, profiles
        )
    except ReproError as exc:
        report.violations.append(
            f"scheduling pipeline raised {type(exc).__name__}: {exc}"
        )
        return report

    placement = dict(schedule.placement)
    if placement_transform is not None:
        placement = placement_transform(placement, partition)
    report.placement = placement

    placement_violations = check_placement(partition, placement, devices=devices)
    if placement_violations:
        # The validator caught the (injected or real) scheduler bug before
        # plan construction could crash on it.
        report.violations += placement_violations
        return report

    arms: list[tuple[str, dict[str, str]]] = [("", placement)]
    # Device round-robin guarantees cross-device edges (and, on a mesh,
    # touches every device once enough subgraphs exist).
    alt = round_robin_placement(partition, devices)
    if cross_device and alt != placement:
        arms.append(("@alt", alt))

    for suffix, arm_placement in arms:
        try:
            plan = build_hetero_plan(
                graph, partition, profiles, arm_placement, devices=devices
            )
        except ReproError as exc:
            report.violations.append(
                f"plan construction{suffix} raised {type(exc).__name__}: {exc}"
            )
            continue
        report.violations += validate_schedule(
            graph, partition, arm_placement, plan, devices=devices, host=host
        )
        plan_budget = _plan_budget(plan)

        def run_simulator(outcome, plan=plan, plan_budget=plan_budget):
            result = simulate(plan, machine, inputs=feeds)
            outcome.outputs = result.outputs
            # Predicted completion order = tasks sorted by virtual finish.
            outcome.task_order = [
                r.task_id
                for r in sorted(result.tasks, key=lambda r: (r.finish, r.start))
            ]
            report.divergences += _compare(
                outcome.name, result.outputs, ref, plan_budget
            )
            report.violations += check_execution(plan, result, host=host)
            report.violations += check_task_order(plan, outcome.task_order)

        def run_simulator_overlap(
            outcome, plan=plan, suffix=suffix, plan_budget=plan_budget
        ):
            result = simulate(plan, machine, inputs=feeds, overlap=True)
            outcome.outputs = result.outputs
            outcome.task_order = [
                r.task_id
                for r in sorted(result.tasks, key=lambda r: (r.finish, r.start))
            ]
            report.divergences += _compare(
                outcome.name, result.outputs, ref, plan_budget
            )
            report.violations += check_execution(plan, result, host=host)
            report.violations += check_task_order(plan, outcome.task_order)
            # Overlap reorders the virtual clock, never the data: outputs
            # must be bit-identical to the lazy simulation of the same plan.
            lazy = report.outcomes.get(f"simulator{suffix}")
            if lazy is not None and lazy.outputs is not None:
                if outcome.outputs is None or any(
                    not np.array_equal(a, b)
                    for a, b in zip(lazy.outputs, outcome.outputs)
                ):
                    report.divergences.append(
                        f"{outcome.name}: overlap-enabled execution is not "
                        "bit-identical to the lazy simulation"
                    )

        def run_threaded(outcome, plan=plan, plan_budget=plan_budget):
            result = ThreadedExecutor(plan).run(feeds)
            outcome.outputs = result.outputs
            outcome.task_order = result.task_order
            report.divergences += _compare(
                outcome.name, result.outputs, ref, plan_budget
            )
            report.violations += check_task_order(plan, result.task_order)
            for tid, dev in result.task_worker.items():
                if plan.task(tid).device != dev:
                    report.violations.append(
                        f"{outcome.name}: task {tid!r} ran on {dev!r}, "
                        f"planned {plan.task(tid).device!r}"
                    )

        def run_resilient(outcome, plan=plan, plan_budget=plan_budget):
            result = ResilientExecutor(plan).run(feeds)
            outcome.outputs = result.outputs
            outcome.task_order = result.task_order
            report.divergences += _compare(
                outcome.name, result.outputs, ref, plan_budget
            )
            report.violations += check_task_order(plan, result.task_order)
            if result.events:
                report.violations.append(
                    f"{outcome.name}: fault-free run logged "
                    f"{len(result.events)} recovery events"
                )

        def run_core(outcome, plan=plan, plan_budget=plan_budget):
            # Two arena-backed requests through one kernel: the session
            # configuration, plus a check that buffer reuse on the second
            # request does not perturb the numerics.
            kernel = DispatchKernel(
                plan, workers=InlineWorkers(), arena=TensorArena()
            )
            first = [np.copy(o) for o in kernel.run(feeds).outputs]
            result = kernel.run(feeds)
            outcome.outputs = result.outputs
            outcome.task_order = result.task_order
            report.divergences += _compare(
                outcome.name, result.outputs, ref, plan_budget
            )
            report.violations += check_task_order(plan, result.task_order)
            for a, b in zip(first, result.outputs):
                if not np.array_equal(a, b):
                    report.violations.append(
                        f"{outcome.name}: arena reuse changed outputs "
                        "between repeated runs"
                    )

        def run_preempt(outcome, plan=plan, plan_budget=plan_budget):
            # The serving frontend's preemption path: force a suspension
            # at every phase boundary, and run a full interloping dispatch
            # on the same kernel (same arena) while suspended — exactly
            # what a higher-priority request does to a preempted one.
            # The checkpointed frontier must survive the arena clobber.
            kernel = DispatchKernel(
                plan, workers=InlineWorkers(), arena=TensorArena()
            )
            hops = 0
            out = kernel.run(feeds, should_preempt=lambda: True)
            while isinstance(out, PhaseCheckpoint):
                hops += 1
                kernel.run(feeds)  # interloper clobbers the arena
                out = kernel.run(should_preempt=lambda: True, checkpoint=out)
            outcome.outputs = out.outputs
            outcome.task_order = out.task_order
            report.divergences += _compare(
                outcome.name, out.outputs, ref, plan_budget
            )
            report.violations += check_task_order(plan, out.task_order)
            boundaries = sum(
                1
                for prev, cur in zip(plan.tasks, plan.tasks[1:])
                if cur.phase_index != prev.phase_index
            )
            if hops != boundaries:
                report.violations.append(
                    f"{outcome.name}: suspended {hops} times, plan has "
                    f"{boundaries} phase boundaries"
                )

        attempt(f"simulator{suffix}", run_simulator)
        attempt(f"simulator:overlap{suffix}", run_simulator_overlap)
        attempt(f"threaded{suffix}", run_threaded)
        attempt(f"resilient{suffix}", run_resilient)
        attempt(f"core{suffix}", run_core)
        attempt(f"preempt{suffix}", run_preempt)

    return report
