"""Elementwise and broadcast operators.

These are the cheap, memory-bound operators that the fusion pass folds into
their producers (pattern ``ELEMWISE`` / ``BROADCAST``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ShapeError, TypeCheckError
from repro.ir.dtype import TensorType
from repro.ir.ops.registry import (
    Attrs,
    OpKind,
    OpPattern,
    OpSpec,
    register_op,
)

__all__ = ["broadcast_types"]


def broadcast_types(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    """Shape inference for NumPy-style broadcasting binary ops."""
    a, b = in_types
    if a.dtype != b.dtype:
        raise TypeCheckError(
            f"dtype mismatch in broadcast op: {a.dtype} vs {b.dtype}"
        )
    try:
        shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(
            f"shapes {a.shape} and {b.shape} are not broadcastable"
        ) from exc
    return TensorType(shape, a.dtype)


def _same_type(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    """Shape inference for unary ops: output type equals input type."""
    return in_types[0]


def _register_binary(name: str, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
    register_op(
        OpSpec(
            name=name,
            arity=2,
            pattern=OpPattern.BROADCAST,
            kind=OpKind.ELEMWISE,
            infer_type=broadcast_types,
            compute=lambda xs, attrs, _fn=fn: _fn(xs[0], xs[1]),
        )
    )


def _register_unary(
    name: str, fn: Callable[[np.ndarray], np.ndarray], flops_per_elem: float = 1.0
) -> None:
    register_op(
        OpSpec(
            name=name,
            arity=1,
            pattern=OpPattern.ELEMWISE,
            kind=OpKind.ELEMWISE,
            infer_type=_same_type,
            compute=lambda xs, attrs, _fn=fn: _fn(xs[0]),
            flops=lambda i, o, a, _c=flops_per_elem: _c * o.num_elements,
        )
    )


_register_binary("add", np.add)
_register_binary("subtract", np.subtract)
_register_binary("multiply", np.multiply)
_register_binary("divide", np.divide)
_register_binary("maximum", np.maximum)
_register_binary("minimum", np.minimum)

_register_unary("relu", lambda x: np.maximum(x, 0))
_register_unary("negative", np.negative)
_register_unary("abs", np.abs)
_register_unary("sqrt", np.sqrt, flops_per_elem=4.0)
_register_unary("exp", np.exp, flops_per_elem=8.0)
_register_unary("log", np.log, flops_per_elem=8.0)
_register_unary(
    "sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x)), flops_per_elem=10.0
)
_register_unary("tanh", np.tanh, flops_per_elem=10.0)
_register_unary(
    "gelu",
    lambda x: 0.5 * x * (
        1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x * x * x))
    ),
    flops_per_elem=14.0,
)
_register_unary("identity", lambda x: x.copy(), flops_per_elem=0.0)


def _leaky_relu(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    alpha = float(attrs.get("alpha", 0.01))
    x = xs[0]
    return np.where(x >= 0, x, alpha * x)


register_op(
    OpSpec(
        name="leaky_relu",
        arity=1,
        pattern=OpPattern.ELEMWISE,
        kind=OpKind.ELEMWISE,
        infer_type=_same_type,
        compute=_leaky_relu,
        flops=lambda i, o, a: 2.0 * o.num_elements,
    )
)


def _clip(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    return np.clip(xs[0], float(attrs["min"]), float(attrs["max"]))


register_op(
    OpSpec(
        name="clip",
        arity=1,
        pattern=OpPattern.ELEMWISE,
        kind=OpKind.ELEMWISE,
        infer_type=_same_type,
        compute=_clip,
        flops=lambda i, o, a: 2.0 * o.num_elements,
    )
)


def _bias_add_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    data, bias = in_types
    if bias.rank != 1:
        raise ShapeError(f"bias must be rank 1, got {bias.shape}")
    axis = int(attrs.get("axis", -1))
    dim = data.shape[axis]
    if bias.shape[0] != dim:
        raise ShapeError(
            f"bias length {bias.shape[0]} does not match data axis {axis} "
            f"of shape {data.shape}"
        )
    return data


def _bias_add(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    data, bias = xs
    axis = int(attrs.get("axis", -1))
    if axis < 0:
        axis += data.ndim
    view = [1] * data.ndim
    view[axis] = bias.shape[0]
    return data + bias.reshape(view)


register_op(
    OpSpec(
        name="bias_add",
        arity=2,
        pattern=OpPattern.BROADCAST,
        kind=OpKind.ELEMWISE,
        infer_type=_bias_add_infer,
        compute=_bias_add,
    )
)
