"""Structural invariant checking for partitions, placements, plans, runs.

Every guarantee the paper's compiler-runtime contract makes is written
down here as a checkable predicate:

* **partition** (§IV-A): phases cover every live operator exactly once,
  sequential phases hold one chain subgraph, multi-path phases hold
  mutually independent subgraphs, and data only flows from earlier phases
  to later ones;
* **placement** (§IV-C): every subgraph placed exactly once on a real
  device — the property each greedy-correction swap must preserve;
* **plan** (§IV-D): task order is dependency-respecting, sources are
  fully wired to real producers, and the tasks' modules cover the model's
  operators exactly once;
* **execution**: per-device serialization, a matching PCIe transfer for
  every cross-device edge, transfer/compute causality, and a completion
  order that linearizes the task DAG.

All ``check_*`` functions return a list of human-readable violations
(empty = invariant holds) so callers can aggregate; the ``assert_*``
wrappers raise :class:`~repro.errors.InvariantViolation` carrying the
full list.  The checks are intentionally independent of the code that
*constructs* these objects — they re-derive everything from the graph —
so a scheduler bug cannot hide by breaking the checker the same way.

They are cheap enough to run always in tests and, under the engine's
debug flag (``DuetEngine(validate=True)`` or ``REPRO_VALIDATE=1``), on
every production scheduling decision.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from repro.core.phases import PhasedPartition, PhaseType
from repro.devices.machine import link_key
from repro.errors import InvariantViolation
from repro.ir.graph import Graph
from repro.runtime.plan import HeteroPlan
from repro.runtime.simulator import ExecutionResult

__all__ = [
    "check_partition",
    "check_placement",
    "check_plan",
    "check_task_order",
    "check_execution",
    "validate_schedule",
    "assert_valid",
]

#: Default-machine device set, used when a caller does not say which
#: mesh the schedule was produced for.
_DEVICES = ("cpu", "gpu")
_HOST = "cpu"
_EPS = 1e-9


def assert_valid(violations: Sequence[str]) -> None:
    """Raise :class:`InvariantViolation` if any violation was collected."""
    if violations:
        raise InvariantViolation(list(violations))


# ----------------------------------------------------------------------
# partition invariants (§IV-A phase structure)
# ----------------------------------------------------------------------


def _op_edges_between(graph: Graph, members: frozenset[str]):
    """Op->op edges of ``graph`` with the producer inside ``members``."""
    for nid in members:
        for consumer in graph.consumers(nid):
            if graph.node(consumer).is_op:
                yield nid, consumer


def check_partition(graph: Graph, partition: PhasedPartition) -> list[str]:
    """Phase-structure legality of ``partition`` for (pruned) ``graph``."""
    violations: list[str] = []
    live = graph.pruned()
    expected = {n.id for n in live.op_nodes()}

    counts: Counter[str] = Counter()
    owner: dict[str, str] = {}
    phase_of: dict[str, int] = {}
    for phase in partition.phases:
        if phase.type is PhaseType.SEQUENTIAL and len(phase.subgraphs) != 1:
            violations.append(
                f"sequential phase {phase.index} holds "
                f"{len(phase.subgraphs)} subgraphs"
            )
        for sg in phase.subgraphs:
            for nid in sg.node_ids:
                counts[nid] += 1
                owner[nid] = sg.id
                phase_of[nid] = phase.index

    multi = [nid for nid, c in counts.items() if c > 1]
    if multi:
        violations.append(f"nodes assigned to several subgraphs: {sorted(multi)[:4]}")
    missing = expected - set(counts)
    if missing:
        violations.append(f"live operators not covered by any phase: {sorted(missing)[:4]}")
    extra = set(counts) - expected
    if extra:
        violations.append(f"phases contain dead/unknown operators: {sorted(extra)[:4]}")

    for phase in partition.phases:
        for sg in phase.subgraphs:
            members = sg.node_ids & expected
            if phase.type is PhaseType.SEQUENTIAL:
                # A sequential subgraph must be a chain in the op graph:
                # at most one internal predecessor/successor per member.
                out_deg = Counter()
                in_deg = Counter()
                for u, v in _op_edges_between(live, frozenset(members)):
                    if v in members:
                        out_deg[u] += 1
                        in_deg[v] += 1
                if any(d > 1 for d in out_deg.values()) or any(
                    d > 1 for d in in_deg.values()
                ):
                    violations.append(
                        f"sequential subgraph {sg.id!r} is not a chain"
                    )
            for u, v in _op_edges_between(live, frozenset(members)):
                if v not in phase_of:
                    continue  # dangling consumer already reported above
                if phase_of[v] < phase.index:
                    violations.append(
                        f"edge {u!r}->{v!r} flows backwards from phase "
                        f"{phase.index} to phase {phase_of[v]}"
                    )
                elif phase_of[v] == phase.index and owner[v] != sg.id:
                    violations.append(
                        f"multi-path phase {phase.index} subgraphs "
                        f"{sg.id!r} and {owner[v]!r} are not independent "
                        f"(edge {u!r}->{v!r})"
                    )
    return violations


# ----------------------------------------------------------------------
# placement invariants (§IV-C: what every correction swap must preserve)
# ----------------------------------------------------------------------


def check_placement(
    partition: PhasedPartition,
    placement: Mapping[str, str],
    devices: Sequence[str] | None = None,
) -> list[str]:
    """Every subgraph placed exactly once, on a real device.

    ``devices`` is the machine's device set; the default-machine pair
    when omitted.
    """
    violations: list[str] = []
    valid = tuple(devices) if devices is not None else _DEVICES
    ids = {sg.id for sg in partition.subgraphs}
    missing = ids - set(placement)
    if missing:
        violations.append(f"subgraphs never placed: {sorted(missing)}")
    extra = set(placement) - ids
    if extra:
        violations.append(f"placement names unknown subgraphs: {sorted(extra)}")
    for sid, dev in placement.items():
        if dev not in valid:
            violations.append(f"subgraph {sid!r} placed on invalid device {dev!r}")
    return violations


# ----------------------------------------------------------------------
# plan invariants (§IV-D executor input contract)
# ----------------------------------------------------------------------


def check_plan(
    plan: HeteroPlan,
    graph: Graph | None = None,
    partition: PhasedPartition | None = None,
    placement: Mapping[str, str] | None = None,
    devices: Sequence[str] | None = None,
) -> list[str]:
    """Static validity of an executable plan.

    With ``graph`` the operator coverage is verified; with ``partition``
    (and optionally ``placement``) the plan is cross-checked against the
    scheduling decision it supposedly implements.  ``devices`` is the
    machine's device set (default-machine pair when omitted).
    """
    violations: list[str] = []
    valid_devices = tuple(devices) if devices is not None else _DEVICES
    ids = [t.task_id for t in plan.tasks]
    for tid, n in Counter(ids).items():
        if n > 1:
            violations.append(f"task id {tid!r} appears {n} times")
    by_id = {t.task_id: t for t in plan.tasks}

    seen: set[str] = set()
    for task in plan.tasks:
        if task.device not in valid_devices:
            violations.append(
                f"task {task.task_id!r} pinned to invalid device {task.device!r}"
            )
        wired = set(task.sources)
        declared = set(task.module.input_ids)
        if wired != declared:
            violations.append(
                f"task {task.task_id!r} wiring mismatch: missing "
                f"{sorted(declared - wired)}, extra {sorted(wired - declared)}"
            )
        for input_id, src in task.sources.items():
            if src.kind == "task":
                if src.ref not in by_id:
                    violations.append(
                        f"task {task.task_id!r} reads unknown task {src.ref!r}"
                    )
                    continue
                if src.ref not in seen:
                    violations.append(
                        f"task {task.task_id!r} depends on {src.ref!r} which "
                        "does not precede it (plan order not topological)"
                    )
                producer = by_id[src.ref]
                if not 0 <= src.output_index < len(producer.module.output_ids):
                    violations.append(
                        f"task {task.task_id!r} reads output "
                        f"{src.output_index} of {src.ref!r} which has only "
                        f"{len(producer.module.output_ids)} outputs"
                    )
            elif graph is not None:
                if src.ref not in graph or not graph.node(src.ref).is_input:
                    violations.append(
                        f"task {task.task_id!r} external source {src.ref!r} "
                        "is not a model input"
                    )
        seen.add(task.task_id)

    for tid, idx in plan.outputs:
        if tid not in by_id:
            violations.append(f"plan output references unknown task {tid!r}")
        elif not 0 <= idx < len(by_id[tid].module.output_ids):
            violations.append(
                f"plan output ({tid!r}, {idx}) exceeds the task's outputs"
            )

    if graph is not None:
        # No operator may be computed twice (compiler passes may *remove*
        # ops — folding, CSE, DCE — so absence is checked via the
        # partition's boundary contract below, not op-by-op here).
        covered: Counter[str] = Counter()
        for task in plan.tasks:
            for node in task.module.graph.op_nodes():
                covered[node.id] += 1
        duplicated = [nid for nid, c in covered.items() if c > 1]
        if duplicated:
            violations.append(
                f"operators executed by several tasks: {sorted(duplicated)[:4]}"
            )
        # Every declared model output must be produced, in declaration
        # order, by the plan's outputs.
        live = graph.pruned()
        produced = [
            by_id[tid].module.output_ids[idx]
            for tid, idx in plan.outputs
            if tid in by_id and 0 <= idx < len(by_id[tid].module.output_ids)
        ]
        if tuple(produced) != tuple(live.outputs):
            violations.append(
                f"plan outputs compute {produced} but the model declares "
                f"{list(live.outputs)}"
            )

    if partition is not None:
        sg_by_id = {sg.id: sg for sg in partition.subgraphs}
        phase_of = {
            sg.id: phase.index
            for phase in partition.phases
            for sg in phase.subgraphs
        }
        for task in plan.tasks:
            sg = sg_by_id.get(task.task_id)
            if sg is None:
                violations.append(
                    f"task {task.task_id!r} matches no partition subgraph"
                )
                continue
            if task.phase_index != phase_of[task.task_id]:
                violations.append(
                    f"task {task.task_id!r} claims phase {task.phase_index} "
                    f"but the partition puts it in phase {phase_of[task.task_id]}"
                )
            if tuple(task.module.output_ids) != sg.boundary_outputs:
                violations.append(
                    f"task {task.task_id!r} exposes outputs "
                    f"{list(task.module.output_ids)} but its subgraph's "
                    f"boundary is {list(sg.boundary_outputs)}"
                )
        unrealized = set(sg_by_id) - {t.task_id for t in plan.tasks}
        if unrealized:
            violations.append(
                f"subgraphs without a plan task: {sorted(unrealized)}"
            )

    if placement is not None:
        for task in plan.tasks:
            want = placement.get(task.task_id)
            if want is not None and task.device != want:
                violations.append(
                    f"task {task.task_id!r} runs on {task.device!r} but the "
                    f"placement says {want!r}"
                )
    return violations


def check_task_order(plan: HeteroPlan, order: Sequence[str]) -> list[str]:
    """Is ``order`` (an executor's completion order) a linearization of
    the plan's task DAG covering every task exactly once?"""
    violations: list[str] = []
    expected = {t.task_id for t in plan.tasks}
    counts = Counter(order)
    for tid, n in counts.items():
        if n > 1:
            violations.append(f"task {tid!r} completed {n} times")
    missing = expected - set(counts)
    if missing:
        violations.append(f"tasks never completed: {sorted(missing)}")
    extra = set(counts) - expected
    if extra:
        violations.append(f"unknown tasks completed: {sorted(extra)}")
    pos = {tid: i for i, tid in enumerate(order)}
    for task in plan.tasks:
        for src in task.sources.values():
            if src.kind != "task":
                continue
            if (
                task.task_id in pos
                and src.ref in pos
                and pos[src.ref] > pos[task.task_id]
            ):
                violations.append(
                    f"task {task.task_id!r} completed before its "
                    f"dependency {src.ref!r}"
                )
    return violations


# ----------------------------------------------------------------------
# execution invariants (simulator timeline legality)
# ----------------------------------------------------------------------


def check_execution(
    plan: HeteroPlan, result: ExecutionResult, host: str = _HOST
) -> list[str]:
    """Causality and resource-exclusivity of a simulated execution.

    Verifies the §IV-D executor semantics on the recorded timeline:
    per-device serialization, one matching PCIe transfer per cross-device
    edge (started after the producer finished, delivered before the
    consumer started), serialized usage of each device-pair link, and
    host delivery of every off-host model output by the reported latency.
    ``host`` is where external inputs live and outputs land (the default
    machine's ``"cpu"`` when omitted).
    """
    violations: list[str] = []
    recs = {r.task_id: r for r in result.tasks}
    by_id = {t.task_id: t for t in plan.tasks}

    for task in plan.tasks:
        if task.task_id not in recs:
            violations.append(f"no execution record for task {task.task_id!r}")
    if len(result.tasks) != len(plan.tasks):
        violations.append(
            f"{len(result.tasks)} task records for {len(plan.tasks)} tasks"
        )
    for rec in result.tasks:
        task = by_id.get(rec.task_id)
        if task is None:
            violations.append(f"record for unknown task {rec.task_id!r}")
        elif rec.device != task.device:
            violations.append(
                f"task {rec.task_id!r} recorded on {rec.device!r} but "
                f"planned on {task.device!r}"
            )
        if rec.finish < rec.start - _EPS:
            violations.append(f"task {rec.task_id!r} finishes before it starts")

    # Devices execute one task at a time (footnote 2).
    for device in sorted({r.device for r in result.tasks}):
        timeline = sorted(
            (r for r in result.tasks if r.device == device),
            key=lambda r: (r.start, r.finish),
        )
        for prev, cur in zip(timeline, timeline[1:]):
            if cur.start < prev.finish - _EPS:
                violations.append(
                    f"tasks {prev.task_id!r} and {cur.task_id!r} overlap "
                    f"on {device}"
                )

    # Each device-pair link is one serialized resource.
    by_link: dict[tuple[str, str], list] = {}
    for t in result.transfers:
        by_link.setdefault(link_key(t.src_device, t.dest_device), []).append(t)
    for link_pair in sorted(by_link):
        link = sorted(by_link[link_pair], key=lambda t: (t.start, t.finish))
        for prev, cur in zip(link, link[1:]):
            if cur.start < prev.finish - _EPS:
                violations.append(
                    f"transfers {prev.what!r} and {cur.what!r} overlap on "
                    f"the link {link_pair}"
                )

    def find_transfer(label: str, dest: str):
        for t in result.transfers:
            if t.what == label and t.dest_device == dest:
                return t
        return None

    for task in plan.tasks:
        rec = recs.get(task.task_id)
        if rec is None:
            continue
        for src in task.sources.values():
            if src.kind == "external":
                produced_at, produced_on = 0.0, host
                label = f"external:{src.ref}"
            else:
                producer = recs.get(src.ref)
                if producer is None:
                    continue
                produced_at = producer.finish
                produced_on = producer.device
                label = f"task:{src.ref}[{src.output_index}]"
            if produced_on == task.device:
                if rec.start < produced_at - _EPS:
                    violations.append(
                        f"task {task.task_id!r} starts before its same-device "
                        f"input {label} is ready"
                    )
                continue
            transfer = find_transfer(label, task.device)
            if transfer is None:
                violations.append(
                    f"cross-device edge {label} -> {task.task_id!r} has no "
                    "matching transfer"
                )
                continue
            if transfer.src_device != produced_on:
                violations.append(
                    f"transfer {label} recorded leaving "
                    f"{transfer.src_device!r} but produced on {produced_on!r}"
                )
            if transfer.start < produced_at - _EPS:
                violations.append(
                    f"transfer {label} starts before its producer finishes"
                )
            if rec.start < transfer.finish - _EPS:
                violations.append(
                    f"task {task.task_id!r} starts before transfer {label} "
                    "delivers"
                )

    # Every model output must be host-resident by the reported latency.
    for tid, idx in plan.outputs:
        rec = recs.get(tid)
        if rec is None:
            continue
        if rec.device == host:
            arrival = rec.finish
        else:
            label = f"task:{tid}[{idx}]"
            transfer = find_transfer(label, host)
            if transfer is None:
                violations.append(
                    f"off-host output ({tid!r}, {idx}) never transferred "
                    "to the host"
                )
                continue
            arrival = transfer.finish
        if result.latency < arrival - _EPS:
            violations.append(
                f"latency {result.latency} precedes arrival of output "
                f"({tid!r}, {idx}) at {arrival}"
            )
    return violations


# ----------------------------------------------------------------------
# aggregate entry point
# ----------------------------------------------------------------------


def validate_schedule(
    graph: Graph,
    partition: PhasedPartition,
    placement: Mapping[str, str],
    plan: HeteroPlan,
    result: ExecutionResult | None = None,
    devices: Sequence[str] | None = None,
    host: str = _HOST,
) -> list[str]:
    """Run every applicable invariant over one scheduling decision.

    ``devices``/``host`` describe the machine the schedule targets; the
    defaults are the 2-device machine's.
    """
    violations = check_partition(graph, partition)
    violations += check_placement(partition, placement, devices=devices)
    violations += check_plan(
        plan, graph=graph, partition=partition, placement=placement,
        devices=devices,
    )
    if result is not None:
        violations += check_execution(plan, result, host=host)
    return violations
