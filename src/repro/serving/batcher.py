"""Dynamic batching: window collection and stack-safe batched execution.

Two concerns live here, both deliberately separable from the serving
frontend so they can be tested without threads:

**Window collection** (:func:`collect_batch`): given the first request of
a window, keep pulling compatible requests until the batch is full or the
window's linger deadline — anchored at the *first* request, so no request
ever waits longer than ``max_linger_s`` inside the batcher — expires.  An
incompatible request ends the window and is carried over as the head of
the next one, which is the "fallback to unbatched dispatch when shapes
differ": mixed-signature traffic degrades to smaller (eventually
singleton) batches instead of being reordered or rejected.

**Stacked execution** (:func:`analyze_stack_safety`, :func:`run_stacked`):
a batch of same-signature requests *can* be executed as one graph
execution over inputs concatenated along the batch axis — but only when
that is bit-identical to running each request alone, because the serving
contract is exact equality with a solo :class:`~repro.runtime.session.
EngineSession` run.  Row-independent NumPy ops (elementwise ufuncs,
axis>=1 reductions and softmaxes, axis>=1 concat) keep that promise:
each output element is computed from the same values in the same order
regardless of how many rows sit above it.  BLAS-backed ops do **not** —
``np.matmul`` picks shape-dependent micro-kernels, so row *i* of a
stacked GEMM can differ in the last ulp from the solo result (observed
empirically; the verdict even varies with the operand *values*, so no
calibration scheme can certify it).  :func:`analyze_stack_safety`
therefore whitelists plans conservatively: anything containing
dense/matmul/recurrent kernels, axis-0 slicing, or batch-shaped
constants is marked unstackable.  The verdict also decides whether a
window is collected at all: the frontend opens one only on a worker
that holds a stacked kernel, because a window's linger buys nothing
where requests would run one by one anyway.  Requests for an
unstackable plan are dispatched singly as they are dequeued, and a
stacked run that raises re-runs its requests one by one; both stay
exact.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.plan import HeteroPlan

__all__ = [
    "BatchConfig",
    "request_signature",
    "collect_batch",
    "StackDecision",
    "analyze_stack_safety",
    "run_stacked",
    "STACK_SAFE_ELEMENTWISE",
    "STACK_SAFE_AXIS_OPS",
]

#: Ops whose outputs are computed element-by-element from broadcast
#: inputs: bit-stable under batch stacking by IEEE semantics (arithmetic,
#: comparisons) or verified positional stability of the NumPy SIMD loops
#: (exp/tanh/sigmoid).  ``log``/``sqrt`` stay off the list only because
#: their NaN branches are untested, not because a counterexample exists.
STACK_SAFE_ELEMENTWISE = frozenset(
    {
        "add", "subtract", "multiply", "divide", "maximum", "minimum",
        "relu", "negative", "abs", "identity", "exp", "tanh", "sigmoid",
        "leaky_relu", "clip",
    }
)

#: Ops that reduce/normalize/join along one axis: row-independent — and
#: therefore stack-safe — exactly when that axis is not the batch axis.
STACK_SAFE_AXIS_OPS = frozenset(
    {
        "reduce_sum", "reduce_mean", "reduce_max", "reduce_min",
        "softmax", "log_softmax", "argmax", "concat", "bias_add",
    }
)


@dataclass(frozen=True)
class BatchConfig:
    """Dynamic batching knobs.

    Attributes:
        max_batch_size: hard cap on requests coalesced into one batch.
        max_linger_s: longest any request may wait inside the batcher for
            company, measured from the moment the *window's first request*
            is pulled off the queue (later joiners wait strictly less).
            0 means "drain whatever is already queued, never wait".
    """

    max_batch_size: int = 8
    max_linger_s: float = 2e-3

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ExecutionError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_linger_s < 0:
            raise ExecutionError(
                f"max_linger_s must be >= 0, got {self.max_linger_s}"
            )


def request_signature(inputs: Mapping[str, np.ndarray]) -> tuple:
    """Shape/dtype signature deciding which requests may share a batch."""
    return tuple(
        sorted(
            (name, tuple(np.shape(v)), np.asarray(v).dtype.str)
            for name, v in inputs.items()
        )
    )


def collect_batch(
    head,
    get: Callable[[float], object],
    clock: Callable[[], float],
    config: BatchConfig,
    compatible: Callable[[object, object], bool],
    drop: Callable[[object], bool] | None = None,
    on_drop: Callable[[object], None] | None = None,
):
    """Collect one batching window; returns ``(batch, carry)``.

    Args:
        head: the window's first request (already dequeued).
        get: ``get(timeout_s)`` returning the next queued request or
            raising :class:`queue.Empty`; ``timeout_s <= 0`` must not
            block.
        clock: monotonic seconds.
        config: window size/linger limits.
        compatible: whether a request may join ``head``'s batch.
        drop: optional predicate over dequeued joiners; a ``True`` verdict
            discards the request from the window (it joins neither batch
            nor carry).  The serving frontend uses this for deadline
            expiry: work whose deadline passed while queued is dead
            weight, and dropping it at dequeue keeps expired requests
            from occupying batch slots.  ``head`` is never dropped here —
            the caller vetted it before opening the window.
        on_drop: called once per dropped request, so the caller can
            resolve its future and count the expiry.

    The window closes when the batch reaches ``max_batch_size``, the
    linger deadline (anchored at entry, i.e. at ``head``'s dequeue time)
    expires, or an incompatible request arrives — that request is
    returned as ``carry`` and becomes the next window's head, preserving
    arrival order.  Dropped requests do not close the window.
    """
    batch = [head]
    carry = None
    deadline = clock() + config.max_linger_s
    while len(batch) < config.max_batch_size:
        try:
            item = get(deadline - clock())
        except queue.Empty:
            break
        if drop is not None and drop(item):
            if on_drop is not None:
                on_drop(item)
            continue
        if not compatible(head, item):
            carry = item
            break
        batch.append(item)
    return batch, carry


# ----------------------------------------------------------------------
# Stack-safety analysis


@dataclass(frozen=True)
class StackDecision:
    """Whether a plan's batches may execute stacked, and why not.

    Attributes:
        stackable: True when batches of requests for this plan may be
            concatenated along axis 0, executed once, and split back with
            bit-identical per-request results.
        batch: the plan's native batch size (leading input dimension).
        reason: human-readable explanation when ``stackable`` is False.
    """

    stackable: bool
    batch: int = 0
    reason: str = ""


def _normalized_axis(attrs: Mapping, default: int, rank: int) -> int:
    axis = int(attrs.get("axis", default))
    return axis + rank if axis < 0 else axis


def analyze_stack_safety(plan: HeteroPlan) -> StackDecision:
    """Decide statically whether ``plan`` supports stacked batch execution.

    Conservative by construction — the only cost of a ``False`` verdict
    is that requests run one by one, each as soon as it is dequeued.  A
    plan is stackable when:

    * every external input and every op node carries the plan's batch
      size on axis 0 (so concatenation and splitting are well-defined);
    * every op is row-independent along axis 0: an elementwise op from
      :data:`STACK_SAFE_ELEMENTWISE`, or an axis-parameterized op from
      :data:`STACK_SAFE_AXIS_OPS` whose normalized axis is >= 1;
    * no constant operand spans the batch axis (rank equal to its
      consumer's with a batch-sized leading dim would break or alias
      broadcasting over a stacked batch).

    Everything else — ``dense``/``matmul`` (shape-dependent BLAS paths),
    recurrent layers (GEMM inside), ``strided_slice`` (absolute axis-0
    indices) — is rejected.
    """
    batch: int | None = None
    for task in plan.tasks:
        graph = task.module.graph
        for node in graph.input_nodes():
            if not node.ty.shape:
                return StackDecision(False, 0, f"input {node.id!r} is scalar")
            lead = int(node.ty.shape[0])
            if batch is None:
                batch = lead
            elif lead != batch:
                return StackDecision(
                    False, 0,
                    f"input {node.id!r} leading dim {lead} != batch {batch}",
                )
    if batch is None:
        return StackDecision(False, 0, "plan has no external inputs")

    for task in plan.tasks:
        graph = task.module.graph
        for kernel in task.module.kernels:
            for nid in kernel.node_ids:
                node = graph.node(nid)
                shape = tuple(node.ty.shape)
                if not shape or int(shape[0]) != batch:
                    return StackDecision(
                        False, batch,
                        f"op {nid!r} ({node.op}) output shape {shape} does "
                        f"not lead with batch {batch}",
                    )
                in_ranks = [len(graph.node(i).ty.shape) for i in node.inputs]
                rank = max([len(shape), *in_ranks]) if in_ranks else len(shape)
                if node.op in STACK_SAFE_ELEMENTWISE:
                    pass
                elif node.op in STACK_SAFE_AXIS_OPS:
                    default = 0 if node.op == "concat" else -1
                    primary_rank = in_ranks[0] if in_ranks else len(shape)
                    axis = _normalized_axis(node.attrs, default, primary_rank)
                    if axis == 0:
                        return StackDecision(
                            False, batch,
                            f"op {nid!r} ({node.op}) operates along the "
                            "batch axis",
                        )
                else:
                    return StackDecision(
                        False, batch,
                        f"op {nid!r} ({node.op}) is not stack-safe",
                    )
                for src in node.inputs:
                    src_node = graph.node(src)
                    if not src_node.is_const:
                        continue
                    src_shape = tuple(src_node.ty.shape)
                    if (
                        len(src_shape) == rank
                        and src_shape
                        and int(src_shape[0]) == batch
                        and batch > 1
                    ):
                        return StackDecision(
                            False, batch,
                            f"op {nid!r} broadcasts constant {src!r} whose "
                            "leading dim equals the batch size",
                        )
    return StackDecision(True, batch)


def run_stacked(
    kernel_run: Callable[[Mapping[str, np.ndarray]], Sequence[np.ndarray]],
    batch_inputs: Sequence[Mapping[str, np.ndarray]],
    batch: int,
) -> list[list[np.ndarray]]:
    """Execute a batch as one stacked dispatch; returns per-request outputs.

    Args:
        kernel_run: one numeric execution of the plan — typically
            ``DispatchKernel.run(...).outputs`` partially applied.
        batch_inputs: the requests' input dicts (same signature each).
        batch: the plan's native batch size (rows per request).

    Inputs are concatenated along axis 0, executed once, and each output
    split back into per-request slabs of ``batch`` rows.  Slabs are
    copied so callers own their outputs.  Only call this for plans
    :func:`analyze_stack_safety` approved — for those, the split results
    are bit-identical to per-request execution.
    """
    if len(batch_inputs) == 1:
        return [[np.copy(o) for o in kernel_run(batch_inputs[0])]]
    keys = batch_inputs[0].keys()
    stacked_feeds = {
        key: np.concatenate(
            [np.asarray(feeds[key]) for feeds in batch_inputs], axis=0
        )
        for key in keys
    }
    stacked_outputs = kernel_run(stacked_feeds)
    per_request: list[list[np.ndarray]] = []
    for i in range(len(batch_inputs)):
        lo, hi = i * batch, (i + 1) * batch
        per_request.append([np.copy(o[lo:hi]) for o in stacked_outputs])
    return per_request
