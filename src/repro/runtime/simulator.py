"""Discrete-event simulation of heterogeneous plan execution.

Implements the executor semantics of paper §IV-D on a virtual clock:

* one worker per device, executing its assigned subgraphs one at a time in
  plan-priority order (footnote 2: subgraphs on a device run sequentially);
* a tensor consumed on the device that produced it is free; crossing a
  link costs ``base_latency + bytes/bandwidth``, every device pair's link
  is a shared, serialized resource, and repeated consumers of the same
  tensor on the same device reuse one transfer;
* model inputs start host-resident: off-host tasks pay host→device
  transfers for them, and outputs produced off-host pay a device→host
  transfer before the inference counts as complete.

The one axis is the **link discipline**:

* *lazy* (the default): a cross-device tensor is put on its link when the
  consuming task is visited in plan order — a synchronous executor whose
  device workers issue their own copies.  The sequence of events is fixed
  by the plan's structure alone, so the same walk prices one inference
  (:func:`simulate`) or ``n_runs`` noise draws at once
  (:func:`simulate_batch`); only the clock's number type differs.
* *eager* (``simulate(overlap=True)`` and :func:`simulate_stream`): a
  dedicated transfer stage issues every copy the moment its producer
  finishes (external inputs at request arrival), each link serves its
  pending copies in *ready order*, and copies overlap with compute — the
  double-buffered runtime.  Which event comes next depends on the times
  themselves, so this replay is scalar: two noise draws may commit events
  in different orders and cannot share one vectorised pass.

Times are cost-model means (what the scheduler's latency oracle uses) or
per-kernel/per-transfer noise samples (what the tail-latency experiments
use).  The timeline walks never execute a kernel and inject no faults:
when inputs are given, :func:`simulate` takes its ``outputs`` from one
inline :class:`~repro.runtime.core.DispatchKernel` run of the same plan
(the lowered steps every wall-clock executor runs), so the link
discipline moves events on the virtual clock but never changes what is
computed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.devices.machine import Machine, link_key
from repro.errors import ExecutionError
from repro.runtime.core import DispatchKernel
from repro.runtime.plan import HeteroPlan, TaskSpec

__all__ = [
    "KernelRecord",
    "TaskRecord",
    "TransferRecord",
    "ExecutionResult",
    "StreamResult",
    "simulate",
    "simulate_batch",
    "simulate_stream",
]


@dataclass(frozen=True)
class KernelRecord:
    """Timing of one kernel inside a task."""

    name: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class TaskRecord:
    """Timing of one executed task.

    ``kernel_names`` / ``kernel_durations`` hold one entry per kernel in
    execution order (the vectorised walk behind :func:`simulate_batch`
    keeps none); ``request`` is the stream position of the inference the
    task belongs to (always 0 outside :func:`simulate_stream`).
    """

    task_id: str
    device: str
    start: float
    finish: float
    kernel_names: tuple[str, ...] = ()
    kernel_durations: tuple[float, ...] = ()
    request: int = 0

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def kernels(self) -> tuple[KernelRecord, ...]:
        """Per-kernel timing, back to back from ``start``."""
        records = []
        cursor = self.start
        for name, duration in zip(self.kernel_names, self.kernel_durations):
            records.append(
                KernelRecord(name=name, start=cursor, finish=cursor + duration)
            )
            cursor += duration
        return tuple(records)


@dataclass(frozen=True)
class TransferRecord:
    """One transfer occupying the link between two devices.

    ``ready`` is when the tensor could first have been shipped (producer
    finish, or request arrival for external inputs); ``start - ready`` is
    time spent queued behind other traffic on the link.
    """

    what: str  # e.g. "task:rnn_branch[0]" or "external:image"
    src_device: str
    dest_device: str
    n_bytes: float
    ready: float
    start: float
    finish: float
    request: int = 0

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class ExecutionResult:
    """Outcome of one simulated inference."""

    latency: float
    tasks: list[TaskRecord]
    transfers: list[TransferRecord]
    outputs: list[np.ndarray] | None = None

    def task_record(self, task_id: str) -> TaskRecord:
        for rec in self.tasks:
            if rec.task_id == task_id:
                return rec
        raise ExecutionError(f"no record for task {task_id!r}")

    @property
    def total_transfer_bytes(self) -> float:
        return sum(t.n_bytes for t in self.transfers)


@dataclass(frozen=True)
class StreamResult:
    """Outcome of a simulated request stream.

    Attributes:
        latencies: per-request end-to-end latency (completion - arrival).
        makespan: time from first arrival to last completion.
        throughput: completed requests per second over the makespan.
    """

    latencies: tuple[float, ...]
    makespan: float
    throughput: float

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies))

    @property
    def max_latency(self) -> float:
        return float(np.max(self.latencies))


class _Clock:
    """Prices kernels and transfers for one replay.

    Three flavours share the timeline code: cost-model means (optionally
    with precomputed per-task kernel durations), one sampled draw, and
    ``n_runs`` sampled draws at once.  The first two are builtin floats
    combined with builtin ``max`` — the scheduler's latency oracle runs
    thousands of mean replays and must not pay NumPy scalar overhead —
    the third is ``(n_runs,)`` arrays combined with ``np.maximum``.
    """

    def __init__(
        self,
        machine: Machine,
        rng: np.random.Generator | None = None,
        n_runs: int | None = None,
        kernel_times: Mapping[str, Sequence[float]] | None = None,
    ):
        self._machine = machine
        self._rng = rng
        self._n_runs = n_runs
        self._kernel_times = kernel_times
        self.zero = 0.0 if n_runs is None else np.zeros(n_runs)
        self.latest = max if n_runs is None else np.maximum

    def run_task(self, task: TaskSpec, start, request: int = 0) -> TaskRecord:
        """Run ``task``'s kernels back to back from ``start``, pricing them
        in kernel order."""
        device = self._machine.device(task.device)
        kernels = task.module.kernels
        if self._n_runs is not None:
            # Accumulate draw by draw and keep no per-kernel record:
            # n_kernels x n_runs floats nobody reads, and holding them
            # costs the vectorised walk its cache locality.
            finish = start
            for k in kernels:
                finish = finish + device.sample_kernel_time_batch(
                    k.cost, self._rng, self._n_runs
                )
            return TaskRecord(task.task_id, task.device, start, finish)
        durations = None
        if self._rng is not None:
            durations = [device.sample_kernel_time(k.cost, self._rng) for k in kernels]
        elif self._kernel_times is not None:
            durations = self._kernel_times.get(task.task_id)
        if durations is None:
            durations = [device.kernel_time(k.cost) for k in kernels]
        finish = start
        for duration in durations:
            finish += duration
        return TaskRecord(
            task.task_id, task.device, start, finish,
            task.module.kernel_names, tuple(durations), request,
        )

    def transfer_duration(self, src: str, dest: str, n_bytes: float):
        link = self._machine.link(src, dest)
        if self._rng is None:
            return link.transfer_time(n_bytes)
        if self._n_runs is None:
            return link.sample_transfer_time(n_bytes, self._rng)
        return link.sample_transfer_time_batch(n_bytes, self._rng, self._n_runs)


def _input_bytes(task: TaskSpec, input_id: str) -> float:
    return float(task.module.graph.node(input_id).ty.size_bytes)


def _output_bytes(task: TaskSpec, index: int) -> float:
    try:
        out_id = task.module.output_ids[index]
    except IndexError as exc:
        raise ExecutionError(
            f"task {task.task_id!r} has no output index {index}"
        ) from exc
    return float(task.module.graph.node(out_id).ty.size_bytes)


def _label(key: tuple) -> str:
    """Display name of a tensor key: ``("external", name)`` or
    ``("task", task id, output index)``."""
    if key[0] == "external":
        return f"external:{key[1]}"
    return f"task:{key[1]}[{key[2]}]"


def _walk_lazy(
    plan: HeteroPlan,
    machine: Machine,
    clock: _Clock,
) -> tuple[object, list[TaskRecord], list[TransferRecord]]:
    """One inference under the lazy link discipline.

    Visits ``plan.tasks`` in order; a cross-device input is put on its
    link when its consumer is visited.  Returns ``(latency, tasks,
    transfers)`` whose times have the clock's number type.
    """
    host = machine.host
    zero, latest = clock.zero, clock.latest
    by_id = {t.task_id: t for t in plan.tasks}
    device_free = {name: zero for name in machine.device_names}
    link_free: dict[tuple[str, str], object] = {}
    # (tensor key, device) -> arrival time of the tensor on that device
    arrived: dict[tuple[tuple, str], object] = {}
    done: dict[str, TaskRecord] = {}
    tasks: list[TaskRecord] = []
    transfers: list[TransferRecord] = []

    def arrival(key: tuple, ready, src: str, dest: str, n_bytes: float):
        """When the tensor becomes visible on ``dest`` (scheduling the
        transfer if needed)."""
        if src == dest:
            return ready
        cached = arrived.get((key, dest))
        if cached is not None:
            return cached
        duration = clock.transfer_duration(src, dest, n_bytes)
        pair = link_key(src, dest)
        start = latest(link_free.get(pair, zero), ready)
        finish = start + duration
        link_free[pair] = arrived[(key, dest)] = finish
        transfers.append(
            TransferRecord(_label(key), src, dest, n_bytes, ready, start, finish)
        )
        return finish

    def output_arrival(tid: str, index: int, dest: str):
        producer = done[tid]
        return arrival(
            ("task", tid, index), producer.finish, producer.device, dest,
            _output_bytes(by_id[tid], index),
        )

    for task in plan.tasks:
        start = device_free[task.device]
        for input_id, src in task.sources.items():
            if src.kind == "external":
                at = arrival(
                    ("external", src.ref), 0.0, host, task.device,
                    _input_bytes(task, input_id),
                )
            else:
                at = output_arrival(src.ref, src.output_index, task.device)
            start = latest(start, at)
        record = clock.run_task(task, start)
        device_free[task.device] = record.finish
        done[task.task_id] = record
        tasks.append(record)

    # Results must land on the host.
    latency = zero
    for tid, index in plan.outputs:
        latency = latest(latency, output_arrival(tid, index, host))
    return latency, tasks, transfers


def _replay_eager(
    plan: HeteroPlan,
    machine: Machine,
    clock: _Clock,
    arrivals: Sequence[float],
) -> tuple[list[float], list[TaskRecord], list[TransferRecord]]:
    """One inference per arrival under the eager link discipline.

    * one serialized timeline per device, serving (request, task) in
      request-major plan order — the executor's per-device queue;
    * one serialized timeline per device pair that always serves the
      pending transfer with the earliest ready time (ties broken by issue
      order);
    * eager issue: task outputs are enqueued for every cross-device
      consumer at producer-finish time, external inputs at request arrival,
      and model outputs produced off-host are enqueued for host landing;
    * the usual transfer cache — repeated consumers of one tensor on one
      device within a request share a single copy.

    Events are committed in globally non-decreasing start-time order, which
    makes the earliest-ready discipline exact: when a link is granted to a
    transfer starting at ``s``, every transfer issued later has a ready
    time ``>= s`` (its producer had not started yet), so no earlier-ready
    transfer can be preempted retroactively.  Noise is drawn in commit
    order, so the event order itself depends on the draws — this loop
    takes a scalar clock only.

    Returns ``(completions, tasks, transfers)``: per-request completion
    time (all model outputs host-resident), task records in commit order,
    transfer records in link-service order.
    """
    if any(b < a for a, b in zip(arrivals, arrivals[1:])):
        raise ExecutionError("request arrivals must be non-decreasing")
    host = machine.host
    by_id = {t.task_id: t for t in plan.tasks}
    devices = sorted({t.device for t in plan.tasks} | {host})

    # Plan structure shared by every request.
    # producer id -> output index -> cross-device destinations in
    # first-consumer order; model outputs produced off-host gain the host
    # as a destination (the landing transfer).
    consumers: dict[str, dict[int, list[str]]] = {}
    # External tensors consumed off-host: (input name, dest) -> bytes, in
    # plan order — issued at request arrival (the prefetch of the double
    # buffer).
    external: dict[tuple[str, str], float] = {}
    for task in plan.tasks:
        for input_id, src in task.sources.items():
            if src.kind == "external":
                if task.device != host:
                    external.setdefault(
                        (src.ref, task.device), _input_bytes(task, input_id)
                    )
            elif by_id[src.ref].device != task.device:
                dests = consumers.setdefault(src.ref, {}).setdefault(
                    src.output_index, []
                )
                if task.device not in dests:
                    dests.append(task.device)
    for tid, index in plan.outputs:
        if by_id[tid].device != host:
            dests = consumers.setdefault(tid, {}).setdefault(index, [])
            if host not in dests:
                dests.append(host)

    n_req = len(arrivals)
    device_queue: dict[str, list[tuple[int, TaskSpec]]] = {d: [] for d in devices}
    for req in range(n_req):
        for task in plan.tasks:
            device_queue[task.device].append((req, task))
    head = {d: 0 for d in devices}
    device_free = {d: 0.0 for d in devices}
    link_free: dict[tuple[str, str], float] = {}
    finish: dict[tuple[int, str], float] = {}
    # (request, tensor key, dest) -> arrival time of the committed copy.
    arrived: dict[tuple[int, tuple, str], float] = {}
    # Per-link heap of pending transfers: (ready, seq, request, key, src,
    # dest, bytes); the global ``seq`` keeps issue order comparable across
    # links.
    pending: dict[tuple[str, str], list[tuple]] = {}
    seq = 0

    def issue(ready: float, req: int, key: tuple, src: str, dest: str,
              n_bytes: float) -> None:
        nonlocal seq
        heapq.heappush(
            pending.setdefault(link_key(src, dest), []),
            (ready, seq, req, key, src, dest, n_bytes),
        )
        seq += 1

    for req in range(n_req):
        for (ref, dest), n_bytes in external.items():
            issue(float(arrivals[req]), req, ("external", ref), host, dest, n_bytes)

    def task_start(req: int, task: TaskSpec) -> float | None:
        """Earliest start of the queue head, or ``None`` while blocked."""
        start = max(device_free[task.device], float(arrivals[req]))
        for src in task.sources.values():
            if src.kind == "external":
                if task.device == host:
                    continue  # host-resident, ready at arrival
                at = arrived.get((req, ("external", src.ref), task.device))
            elif by_id[src.ref].device == task.device:
                at = finish.get((req, src.ref))
            else:
                at = arrived.get(
                    (req, ("task", src.ref, src.output_index), task.device)
                )
            if at is None:
                return None
            start = max(start, at)
        return start

    tasks: list[TaskRecord] = []
    transfers: list[TransferRecord] = []
    remaining = n_req * len(plan.tasks)
    while remaining > 0 or any(pending.values()):
        # Candidate actions, committed in non-decreasing start order:
        # (start, kind rank, tie, payload).  Transfers rank first on ties
        # so the noise draw order is deterministic, and the globally
        # unique issue ``seq`` orders transfer ties across links.
        best: tuple | None = None
        for pair in sorted(pending):
            queue = pending[pair]
            if queue:
                ready, tseq = queue[0][:2]
                cand = (max(link_free.get(pair, 0.0), ready), 0, tseq, pair)
                if best is None or cand < best:
                    best = cand
        for rank, dev in enumerate(devices):
            if head[dev] < len(device_queue[dev]):
                start = task_start(*device_queue[dev][head[dev]])
                if start is not None:
                    cand = (start, 1, rank, dev)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            raise ExecutionError(
                "overlapped replay deadlocked: no startable task or "
                "transfer (plan order is not dependency-consistent)"
            )

        start, kind, _, payload = best
        if kind == 0:
            ready, _, req, key, src, dest, n_bytes = heapq.heappop(
                pending[payload]
            )
            done = start + clock.transfer_duration(src, dest, n_bytes)
            link_free[payload] = arrived[(req, key, dest)] = done
            transfers.append(
                TransferRecord(
                    _label(key), src, dest, n_bytes, ready, start, done, req
                )
            )
        else:
            req, task = device_queue[payload][head[payload]]
            record = clock.run_task(task, start, req)
            head[payload] += 1
            device_free[payload] = finish[(req, task.task_id)] = record.finish
            remaining -= 1
            tasks.append(record)
            for index, dests in consumers.get(task.task_id, {}).items():
                n_bytes = _output_bytes(task, index)
                for dest in dests:
                    issue(
                        record.finish, req, ("task", task.task_id, index),
                        task.device, dest, n_bytes,
                    )

    completions: list[float] = []
    for req in range(n_req):
        done = float(arrivals[req])
        for tid, index in plan.outputs:
            if by_id[tid].device == host:
                done = max(done, finish[(req, tid)])
            else:
                done = max(done, arrived[(req, ("task", tid, index), host)])
        completions.append(done)
    return completions, tasks, transfers


def simulate(
    plan: HeteroPlan,
    machine: Machine,
    rng: np.random.Generator | None = None,
    inputs: Mapping[str, np.ndarray] | None = None,
    *,
    kernel_times: Mapping[str, Sequence[float]] | None = None,
    overlap: bool = False,
) -> ExecutionResult:
    """Run one inference of ``plan`` on ``machine``.

    Args:
        plan: the heterogeneous execution plan.
        machine: devices + links pricing the virtual clock.
        rng: pass a generator to sample noisy latencies; ``None`` uses
            deterministic mean times.
        inputs: pass model inputs to also execute the plan numerically
            through one inline dispatch (the result then carries
            ``outputs``).
        kernel_times: optional precomputed per-task mean kernel durations
            (task id -> one duration per kernel, in kernel order).  Used
            only in mean mode (``rng is None``); latencies are bit-identical
            to recomputing because the same per-kernel values accumulate in
            the same order.
        overlap: price the plan under the eager (double-buffered) link
            discipline: transfers are issued at producer finish (external
            inputs at arrival) and each link serves them in ready order,
            so copies overlap with compute.  Numerics are unaffected —
            only the virtual clock changes.
    """
    clock = _Clock(machine, rng, kernel_times=kernel_times)
    if overlap:
        (latency,), tasks, transfers = _replay_eager(plan, machine, clock, [0.0])
    else:
        latency, tasks, transfers = _walk_lazy(plan, machine, clock)
    outputs = None
    if inputs is not None:
        outputs = DispatchKernel(plan).run(inputs).outputs
    return ExecutionResult(
        latency=latency, tasks=tasks, transfers=transfers, outputs=outputs
    )


def simulate_batch(
    plan: HeteroPlan,
    machine: Machine,
    rng: np.random.Generator,
    n_runs: int,
) -> np.ndarray:
    """``n_runs`` sampled end-to-end latencies of ``plan`` in one pass.

    Vectorizes the lazy walk over runs: the sequence of noise events
    (which kernel / which transfer, in which order) is fixed by the plan's
    structure, so every scalar quantity of :func:`simulate` — device
    cursors, link free time, task finishes — becomes an ``(n_runs,)``
    array and per-event noise is drawn as one batched NumPy call instead
    of ``n_runs`` sequential simulator walks.

    Draw-order convention: noise is drawn event-major (for each event, a
    vector across runs) in the same event order :func:`simulate` uses, so
    for ``n_runs=1`` the result is bit-identical to one scalar sampled
    simulation with the same generator.  Results are reproducible for a
    given seeded ``rng``.
    """
    if n_runs <= 0:
        raise ExecutionError(f"n_runs must be positive, got {n_runs}")
    latency, _, _ = _walk_lazy(plan, machine, _Clock(machine, rng, n_runs))
    return latency


def simulate_stream(
    plan: HeteroPlan,
    machine: Machine,
    n_requests: int,
    interarrival_s: float = 0.0,
    rng: np.random.Generator | None = None,
) -> StreamResult:
    """Run ``n_requests`` inferences through ``plan`` back to back.

    The paper evaluates single-request latency; a serving system also
    cares about throughput.  Because DUET keeps every device resident,
    consecutive requests pipeline: while request *r*'s RNN subgraph
    occupies the CPU, request *r+1*'s CNN subgraph can already run on the
    GPU.  Requests arrive at ``i * interarrival_s`` (0 = closed-loop
    burst); devices and links are shared FIFO resources across requests
    under the eager link discipline, so pipelining and queueing emerge
    from the timeline bookkeeping and a one-request stream prices
    identically to ``simulate(plan, machine, overlap=True)``.
    """
    if n_requests <= 0:
        raise ExecutionError("n_requests must be positive")
    arrivals = [req * interarrival_s for req in range(n_requests)]
    completions, _, _ = _replay_eager(plan, machine, _Clock(machine, rng), arrivals)
    makespan = max(completions)
    return StreamResult(
        latencies=tuple(
            done - arrival for arrival, done in zip(arrivals, completions)
        ),
        makespan=makespan,
        throughput=n_requests / makespan if makespan > 0 else float("inf"),
    )
