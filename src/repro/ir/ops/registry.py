"""Operator registry.

Every tensor operator known to the IR is described by an :class:`OpSpec`:
shape inference, a NumPy reference implementation, a FLOP-count function,
an intra-operator parallelism estimate, and metadata used by the compiler
(fusion pattern) and by the device cost models (op kind, sequential steps).

Operators register themselves at import time via :func:`register_op`; the
concrete definitions live in the sibling modules (``nn``, ``elementwise``,
``tensor_ops``, ``reduction``, ``recurrent``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import UnknownOpError
from repro.ir.dtype import TensorType

__all__ = [
    "OpPattern",
    "OpKind",
    "OpSpec",
    "register_op",
    "get_op",
    "has_op",
    "list_ops",
]

Attrs = Mapping[str, object]
InferFn = Callable[[Sequence[TensorType], Attrs], TensorType]
ComputeFn = Callable[[Sequence[np.ndarray], Attrs], np.ndarray]
IntoFn = Callable[[Sequence[np.ndarray], Attrs, np.ndarray], np.ndarray]
FlopsFn = Callable[[Sequence[TensorType], TensorType, Attrs], float]
ParallelismFn = Callable[[Sequence[TensorType], TensorType, Attrs], float]
StepsFn = Callable[[Sequence[TensorType], Attrs], int]


class OpPattern(enum.Enum):
    """Fusion pattern, mirroring the classic TVM operator taxonomy.

    The fusion pass uses the pattern to decide which neighbouring
    operators may be merged into one kernel.
    """

    ELEMWISE = "elemwise"  # one-to-one over elements (relu, add with equal shapes)
    BROADCAST = "broadcast"  # elementwise with broadcasting (bias_add)
    INJECTIVE = "injective"  # injective index remap (reshape, transpose, concat)
    REDUCE = "reduce"  # reductions (sum, softmax)
    OUT_FUSABLE = "out_fusable"  # complex op whose *output* can absorb elemwise (dense, conv)
    OPAQUE = "opaque"  # never fused (lstm, input, const)


class OpKind(enum.Enum):
    """Computational category used by device cost models.

    Devices apply kind-specific efficiency factors: e.g. convolutions reach
    a much smaller fraction of CPU peak FLOPs than large GEMMs do, and
    recurrent steps on GPU pay per-step kernel-launch overhead.
    """

    GEMM = "gemm"
    CONV = "conv"
    ELEMWISE = "elemwise"
    REDUCTION = "reduction"
    MEMORY = "memory"  # data movement only (reshape, transpose, concat)
    RECURRENT = "recurrent"
    EMBEDDING = "embedding"


def _default_flops(
    in_types: Sequence[TensorType], out_type: TensorType, attrs: Attrs
) -> float:
    """Default FLOP count: one op per output element."""
    return float(out_type.num_elements)


def _default_parallelism(
    in_types: Sequence[TensorType], out_type: TensorType, attrs: Attrs
) -> float:
    """Default parallelism: every output element is independent."""
    return float(out_type.num_elements)


def _default_steps(in_types: Sequence[TensorType], attrs: Attrs) -> int:
    """Default: the op is a single device kernel (no sequential chain)."""
    return 1


@dataclass(frozen=True)
class OpSpec:
    """Complete description of one tensor operator.

    Attributes:
        name: unique operator name (e.g. ``"conv2d"``).
        arity: number of inputs, or ``None`` for variadic ops (``concat``).
        pattern: fusion pattern for the compiler.
        kind: computational category for device cost models.
        infer_type: shape/dtype inference from input types + attrs.
        compute: NumPy reference implementation.
        flops: floating-point operation count.
        parallelism: degree of independent intra-op data parallelism;
            drives the GPU utilization model (batch-1 RNN steps expose very
            little, convolutions expose a lot — §III-B of the paper).
        sequential_steps: number of serially-dependent kernel launches the
            op lowers to (``seq_len`` for recurrent layers, 1 otherwise).
        kernels_per_step: distinct device kernels launched per step.
        compute_into: optional ``compute_into(xs, attrs, out)`` writing
            ``compute(xs, attrs)`` into ``out`` and returning it, bit for
            bit, for inputs of ``out``'s floating dtype; it never casts
            (``casting="no"``).  The NumPy backend uses it to write a
            kernel's last op straight into its pool slot.
    """

    name: str
    arity: int | None
    pattern: OpPattern
    kind: OpKind
    infer_type: InferFn
    compute: ComputeFn
    flops: FlopsFn = _default_flops
    parallelism: ParallelismFn = _default_parallelism
    sequential_steps: StepsFn = _default_steps
    kernels_per_step: int = 1
    compute_into: IntoFn | None = None


_REGISTRY: dict[str, OpSpec] = {}


def register_op(spec: OpSpec) -> OpSpec:
    """Register an operator spec; raises on duplicate names."""
    if spec.name in _REGISTRY:
        raise ValueError(f"operator {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_op(name: str) -> OpSpec:
    """Fetch a registered operator spec by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise UnknownOpError(f"unknown operator {name!r}") from exc


def has_op(name: str) -> bool:
    """Whether an operator with this name is registered."""
    return name in _REGISTRY


def list_ops() -> list[str]:
    """Sorted names of all registered operators."""
    return sorted(_REGISTRY)
