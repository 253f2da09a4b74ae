"""HEFT-style critical-path scheduling over the subgraph DAG.

Heterogeneous Earliest Finish Time (Topcuoglu et al.) is the classic
list-scheduling baseline the critical-path literature measures against;
"The TensorFlow Partitioning and Scheduling Problem: It's the Critical
Path!" (PAPERS.md) argues exactly this family often dominates learned or
enumerative placement on heterogeneous hardware.  Two steps:

1. **Upward rank.**  ``rank_u(n) = w(n) + max over successors s of
   (c(n, s) + rank_u(s))`` where ``w(n)`` is the subgraph's compute time
   averaged across devices and ``c(n, s)`` the expected link cost of the
   connecting tensor — ``transfer_time(bytes) / 2``, since the edge
   crosses devices in half the device-pair assignments of the 2-device
   machine.  Model outputs fold half a host-landing transfer into their
   producer's rank the same way.  Ranks strictly decrease along edges
   (``w > 0``), so descending rank order is a topological order.

2. **Earliest finish time.**  Subgraphs are placed in rank order on
   whichever device finishes them first, against per-device busy
   timelines and the shared serialized link (incoming copies of each
   candidate are tentatively reserved on the link in dependency order;
   only the chosen device's reservations commit).  The returned makespan
   estimate also prices host landings of off-host model outputs, mirroring
   the simulator's completion rule.

Costs come from the same compiler-aware profiles and interconnect model
every other policy uses, so tournament comparisons are apples-to-apples;
like the DP's estimate, the returned cost is *analytic* and callers
re-measure the placement with the latency oracle.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.phases import PhasedPartition
from repro.core.profiler import SubgraphProfile
from repro.devices.machine import Machine, link_key
from repro.errors import SchedulingError
from repro.ir.graph import Graph

__all__ = ["heft_placement", "upward_ranks"]


def _mean_transfer(machine: Machine, n_bytes: float) -> float:
    """Link transfer time averaged over every device pair (the expected
    cost of an edge whose endpoints are not yet placed)."""
    names = machine.device_names
    total, pairs = 0.0, 0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            total += machine.link(a, b).transfer_time(n_bytes)
            pairs += 1
    return total / pairs if pairs else 0.0


class _SubgraphDag:
    """The inter-subgraph dependency structure HEFT schedules over."""

    def __init__(self, graph: Graph, partition: PhasedPartition):
        self.order = [sg.id for sg in partition.subgraphs]
        producer: dict[str, str] = {}
        for sg in partition.subgraphs:
            for out in sg.boundary_outputs:
                producer[out] = sg.id
        # sid -> [(pred sid | None for host, tensor key, bytes)]
        self.inputs: dict[str, list[tuple[str | None, str, float]]] = {}
        # sid -> {succ sid: max connecting-tensor bytes}
        self.succ_bytes: dict[str, dict[str, float]] = {
            sid: {} for sid in self.order
        }
        for sg in partition.subgraphs:
            entries = []
            for tensor in sg.boundary_inputs:
                n_bytes = float(sg.graph.node(tensor).ty.size_bytes)
                src = producer.get(tensor)
                if src is None and not graph.node(tensor).is_input:
                    raise SchedulingError(
                        f"boundary input {tensor!r} of subgraph {sg.id!r} "
                        "has no producer"
                    )
                entries.append((src, tensor, n_bytes))
                if src is not None:
                    prev = self.succ_bytes[src].get(sg.id, 0.0)
                    self.succ_bytes[src][sg.id] = max(prev, n_bytes)
            self.inputs[sg.id] = entries
        # Model outputs each subgraph produces: (tensor, bytes).
        self.outputs: dict[str, list[tuple[str, float]]] = {
            sid: [] for sid in self.order
        }
        for out in graph.outputs:
            src = producer.get(out)
            if src is None:
                raise SchedulingError(
                    f"model output {out!r} is not produced by any subgraph"
                )
            n_bytes = float(
                partition.subgraph(src).graph.node(out).ty.size_bytes
            )
            self.outputs[src].append((out, n_bytes))


def upward_ranks(
    graph: Graph,
    partition: PhasedPartition,
    profiles: Mapping[str, SubgraphProfile],
    machine: Machine,
) -> dict[str, float]:
    """Upward rank of every subgraph (the HEFT priority)."""
    dag = _SubgraphDag(graph, partition)
    devices = machine.device_names
    # Probability an edge crosses devices when both endpoints are drawn
    # uniformly from the mesh: (n-1)/n — the classic 1/2 on the pair.
    cross_prob = (len(devices) - 1) / len(devices)
    ranks: dict[str, float] = {}
    for sid in reversed(dag.order):  # plan order is topological
        prof = profiles[sid]
        w = sum(prof.time_on(d) for d in devices) / len(devices)
        tail = 0.0
        for succ, n_bytes in dag.succ_bytes[sid].items():
            tail = max(
                tail,
                cross_prob * _mean_transfer(machine, n_bytes) + ranks[succ],
            )
        for _tensor, n_bytes in dag.outputs[sid]:
            tail = max(tail, cross_prob * _mean_transfer(machine, n_bytes))
        ranks[sid] = w + tail
    return ranks


def heft_placement(
    graph: Graph,
    partition: PhasedPartition,
    profiles: Mapping[str, SubgraphProfile],
    machine: Machine,
) -> tuple[dict[str, str], float]:
    """HEFT placement of every subgraph; returns it with the analytic
    makespan of HEFT's own timeline (callers re-measure via the oracle)."""
    dag = _SubgraphDag(graph, partition)
    devices = machine.device_names
    host = machine.host
    ranks = upward_ranks(graph, partition, profiles, machine)
    # Descending rank; plan position breaks exact ties deterministically.
    position = {sid: i for i, sid in enumerate(dag.order)}
    schedule_order = sorted(dag.order, key=lambda s: (-ranks[s], position[s]))

    device_free = {d: 0.0 for d in devices}
    # Each device pair is its own serialized link with its own free cursor
    # (the 2-device machine has exactly one, recovering the scalar model).
    link_free: dict[tuple[str, str], float] = {}
    arrival: dict[tuple[str, str], float] = {}  # (tensor, dest) -> time
    finish: dict[str, float] = {}
    placed_on: dict[str, str] = {}

    def walk_inputs(sid: str, dest: str, commit: bool) -> float:
        """Latest input-availability on ``dest``; optionally commit the
        link reservations this requires."""
        cursors = dict(link_free)
        latest = 0.0
        for src, tensor, n_bytes in dag.inputs[sid]:
            produced_at = 0.0 if src is None else finish[src]
            produced_on = host if src is None else placed_on[src]
            if produced_on == dest:
                avail = produced_at
            else:
                cached = arrival.get((tensor, dest))
                if cached is not None:
                    avail = cached
                else:
                    pair = link_key(produced_on, dest)
                    start = max(cursors.get(pair, 0.0), produced_at)
                    avail = start + machine.link(
                        produced_on, dest
                    ).transfer_time(n_bytes)
                    cursors[pair] = avail
                    if commit:
                        arrival[(tensor, dest)] = avail
            latest = max(latest, avail)
        if commit:
            link_free.update(cursors)
        return latest

    for sid in schedule_order:
        prof = profiles[sid]
        best: tuple[float, float, str] | None = None  # (eft, exec, device)
        for dev in devices:
            ready = max(device_free[dev], walk_inputs(sid, dev, commit=False))
            eft = ready + prof.time_on(dev)
            cand = (eft, prof.time_on(dev), dev)
            if best is None or cand < best:
                best = cand
        _, _, dev = best
        ready = max(device_free[dev], walk_inputs(sid, dev, commit=True))
        done = ready + prof.time_on(dev)
        device_free[dev] = done
        finish[sid] = done
        placed_on[sid] = dev

    # Mirror the simulator's completion rule: model outputs land on host.
    makespan = 0.0
    for sid in dag.order:
        for tensor, n_bytes in dag.outputs[sid]:
            if placed_on[sid] == host:
                makespan = max(makespan, finish[sid])
                continue
            cached = arrival.get((tensor, host))
            if cached is None:
                pair = link_key(placed_on[sid], host)
                start = max(link_free.get(pair, 0.0), finish[sid])
                cached = start + machine.link(
                    placed_on[sid], host
                ).transfer_time(n_bytes)
                link_free[pair] = cached
                arrival[(tensor, host)] = cached
            makespan = max(makespan, cached)
    return placed_on, makespan
