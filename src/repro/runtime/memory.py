"""Activation memory of a heterogeneous plan: planned and accounted.

* :class:`TensorArena` — the one liveness-planned activation pool an
  engine session runs its inline dispatch in (:func:`live_ranges`,
  :func:`place_slots`).
* :func:`memory_report` — what a placement costs in device memory:
  every subgraph's parameters are resident on its assigned device for
  the lifetime of the engine (DUET loads weights once so only
  *activations* cross the PCIe link), and activations peak at the
  largest working set of any single subgraph plus its boundary tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.runtime.plan import HeteroPlan

__all__ = [
    "ALIGN",
    "DeviceMemory",
    "MemoryReport",
    "Slot",
    "TensorArena",
    "live_peak",
    "live_ranges",
    "memory_report",
    "place_slots",
]


#: Byte alignment of every slot in a session's pool.
ALIGN = 64


@dataclass(frozen=True)
class Slot:
    """One kernel output's place in a :class:`TensorArena` pool.

    Attributes:
        key: ``(task_id, node_id)`` of the kernel output.
        shape, dtype: the declared type of that output.
        offset: byte offset in the pool (a multiple of :data:`ALIGN`).
        nbytes: the output's size in bytes.
        first, last: inclusive live range, in steps of the plan's inline
            order (one step per kernel); a plan output's ``last`` is the
            step count, one past the final kernel.
    """

    key: tuple[str, str]
    shape: tuple[int, ...]
    dtype: np.dtype
    offset: int
    nbytes: int
    first: int
    last: int

    @property
    def span(self) -> int:
        """Bytes the slot reserves: ``nbytes`` rounded up to :data:`ALIGN`."""
        return -(-self.nbytes // ALIGN) * ALIGN


def live_ranges(plan: HeteroPlan) -> list[Slot]:
    """Every kernel output's live range over ``plan``'s inline order,
    with ``offset`` 0.

    A slot dies after its last reader inside its task; a task output
    lives until the last kernel of its last consumer task (values a task
    passes straight through to its own outputs carry the range on); a
    plan output lives to the end of the run.
    """
    ranges: dict[tuple[str, str], list[int]] = {}
    types: dict[tuple[str, str], tuple[tuple[int, ...], np.dtype, int]] = {}
    holder: dict[tuple[str, int], tuple[str, str]] = {}
    step = 0
    for task in plan.tasks:
        module, tid = task.module, task.task_id
        local = {
            input_id: holder[(src.ref, src.output_index)]
            for input_id, src in task.sources.items()
            if src.kind == "task" and (src.ref, src.output_index) in holder
        }
        feeds = set(local.values())
        for kernel in module.kernels:
            for i in kernel.input_ids:
                if i in local:
                    ranges[local[i]][1] = step
            key = (tid, kernel.output_id)
            ty = module.graph.node(kernel.output_id).ty
            types[key] = (tuple(ty.shape), ty.dtype.to_numpy(), ty.size_bytes)
            ranges[key] = [step, step]
            local[kernel.output_id] = key
            step += 1
        for key in feeds:
            ranges[key][1] = max(ranges[key][1], step - 1)
        for idx, out_id in enumerate(module.output_ids):
            if out_id in local:
                holder[(tid, idx)] = local[out_id]
    for ref in plan.outputs:
        if ref in holder:
            ranges[holder[ref]][1] = step
    return [
        Slot(key, shape, dtype, 0, nbytes, *ranges[key])
        for key, (shape, dtype, nbytes) in types.items()
    ]


def place_slots(slots: list[Slot]) -> list[Slot]:
    """First-fit, largest first: each slot takes the lowest aligned
    offset that no already-placed slot with an overlapping live range
    covers.  Returns the slots in their input order."""
    placed: list[Slot] = []
    by_key: dict[tuple[str, str], Slot] = {}
    for slot in sorted(slots, key=lambda s: (-s.span, s.first, s.key)):
        taken = sorted(
            (p.offset, p.offset + p.span)
            for p in placed
            if p.first <= slot.last and slot.first <= p.last
        )
        offset = 0
        for lo, hi in taken:
            if offset + slot.span <= lo:
                break
            offset = max(offset, hi)
        slot = replace(slot, offset=offset)
        placed.append(slot)
        by_key[slot.key] = slot
    return [by_key[s.key] for s in slots]


def live_peak(slots: list[Slot]) -> int:
    """Largest sum of live slot sizes at any one step: the least memory
    any placement of ``slots`` needs."""
    if not slots:
        return 0
    delta = [0] * (max(s.last for s in slots) + 2)
    for s in slots:
        delta[s.first] += s.nbytes
        delta[s.last + 1] -= s.nbytes
    peak = live = 0
    for d in delta:
        live += d
        peak = max(peak, live)
    return peak


class TensorArena:
    """One liveness-planned buffer for a plan's kernel outputs.

    An engine session serves many requests from one plan, so the set of
    live activations at every step of its inline run is known before
    the first request.  The arena is planned once from the plan:
    :func:`live_ranges` gives each kernel output a live range,
    :func:`place_slots` packs them first-fit into one 64-byte-aligned
    buffer, and slots whose ranges overlap never share a byte.  Each
    slot is a C-contiguous, writable view of the pool with its output's
    declared type; native kernels and NumPy kernels with an ``out=``
    form write straight into it, and every other kernel's result is
    copied in (:meth:`put`).

    The plan order is the order of an inline run only: threaded workers
    and stacked batches run without an arena.  A value read after its
    slot's range ends may have been overwritten, which is why a
    preempted run's frontier is detached by copy.

    Attributes:
        plan: the plan the pool was planned for.
        slots: every kernel output's :class:`Slot`, in plan order.
        nbytes: the pool's size in bytes.
        allocations: buffers allocated since construction: the pool,
            plus one private copy per result that did not fit its slot's
            declared type (a static-shape plan has none).
    """

    def __init__(self, plan: HeteroPlan) -> None:
        self.plan = plan
        self.slots = place_slots(live_ranges(plan))
        self.nbytes = max((s.offset + s.span for s in self.slots), default=0)
        raw = np.empty(self.nbytes + ALIGN, dtype=np.uint8)
        base = -raw.ctypes.data % ALIGN
        self._pool = raw[base : base + self.nbytes]
        self.allocations = 1
        views: dict[tuple[str, str], np.ndarray] = {
            s.key: self._pool[s.offset : s.offset + s.nbytes]
            .view(s.dtype)
            .reshape(s.shape)
            for s in self.slots
        }
        self._task_views = {
            task.task_id: tuple(
                views[(task.task_id, k.output_id)] for k in task.module.kernels
            )
            for task in plan.tasks
        }

    @property
    def buffer_count(self) -> int:
        """Number of kernel-output slots in the pool."""
        return len(self.slots)

    def task_slots(self, task_id: str) -> tuple[np.ndarray, ...]:
        """The slot views of one task's kernels, in kernel order."""
        return self._task_views[task_id]

    def put(self, slot: np.ndarray, value: np.ndarray) -> np.ndarray:
        """Copy a kernel's result into its slot and return the slot.

        A result of another shape or dtype than the slot's declared type
        is returned as a private copy instead: never cast, and never
        adopted, since a kernel may return a view of its input whose
        bytes the pool reuses while the view is still read.
        """
        value = np.asarray(value)
        if value.shape == slot.shape and value.dtype == slot.dtype:
            np.copyto(slot, value)
            return slot
        self.allocations += 1
        return value.copy()


@dataclass(frozen=True)
class DeviceMemory:
    """Memory footprint of one device under a plan.

    Attributes:
        param_bytes: resident weights of all subgraphs placed here.
        peak_activation_bytes: largest single-subgraph working set
            (boundary inputs + every intermediate + outputs).
        tasks: number of subgraphs placed here.
    """

    param_bytes: float
    peak_activation_bytes: float
    tasks: int

    @property
    def total_bytes(self) -> float:
        return self.param_bytes + self.peak_activation_bytes


_NO_FOOTPRINT = DeviceMemory(param_bytes=0.0, peak_activation_bytes=0.0, tasks=0)


@dataclass(frozen=True)
class MemoryReport:
    """Memory footprint of a plan on every device it touches.

    ``per_device`` maps device name -> :class:`DeviceMemory`; devices the
    plan never placed anything on read back as an all-zero footprint (the
    ``cpu``/``gpu`` convenience accessors preserve the historical
    2-device report shape).
    """

    per_device: dict[str, DeviceMemory]

    def device(self, name: str) -> DeviceMemory:
        return self.per_device.get(name, _NO_FOOTPRINT)

    @property
    def cpu(self) -> DeviceMemory:
        return self.device("cpu")

    @property
    def gpu(self) -> DeviceMemory:
        return self.device("gpu")


def memory_report(plan: HeteroPlan) -> MemoryReport:
    """Compute the per-device memory footprint of ``plan``."""
    stats: dict[str, dict[str, float]] = {
        "cpu": {"params": 0.0, "peak": 0.0, "tasks": 0},
        "gpu": {"params": 0.0, "peak": 0.0, "tasks": 0},
    }
    for task in plan.tasks:
        graph = task.module.graph
        params = float(sum(n.ty.size_bytes for n in graph.const_nodes()))
        working = float(
            sum(n.ty.size_bytes for n in graph.input_nodes())
            + sum(n.ty.size_bytes for n in graph.op_nodes())
        )
        entry = stats.setdefault(
            task.device, {"params": 0.0, "peak": 0.0, "tasks": 0}
        )
        entry["params"] += params
        entry["peak"] = max(entry["peak"], working)
        entry["tasks"] += 1
    return MemoryReport(
        per_device={
            dev: DeviceMemory(
                param_bytes=entry["params"],
                peak_activation_bytes=entry["peak"],
                tasks=int(entry["tasks"]),
            )
            for dev, entry in stats.items()
        }
    )
