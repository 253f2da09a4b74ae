"""Compute-heavy neural-network operators: dense, conv2d, pooling, norms.

Reference implementations use NumPy, and they are also the kernels the
NumPy backend runs, so each is the plain fast idiom.  conv2d unfolds the
input with :func:`im2col` and multiplies by the ``[OC, IC*KH*KW]``
weight in one broadcast ``np.matmul``.  Pooling folds the ``KH*KW``
strided slices of the padded input elementwise, in window order (``kh``
outer, ``kw`` inner): ``np.maximum`` into a copy of the first slice for
max (NaN propagates, bit-identical to the rendered C), a running sum
divided once by ``KH*KW`` for avg (the C loop's order).  FLOP and
parallelism functions feed the device cost models: convolutions expose
large spatial parallelism (GPU-friendly) while batch-1 GEMMs expose
little (§III-B).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.ir.dtype import TensorType
from repro.ir.ops.registry import (
    Attrs,
    OpKind,
    OpPattern,
    OpSpec,
    register_op,
)

__all__ = ["conv2d_output_shape", "im2col"]


# ---------------------------------------------------------------------------
# dense / matmul
# ---------------------------------------------------------------------------


def _dense_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    data, weight = in_types
    if data.rank != 2 or weight.rank != 2:
        raise ShapeError(
            f"dense expects 2-D data and weight, got {data.shape}, {weight.shape}"
        )
    if data.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"dense reduction mismatch: data {data.shape} vs weight "
            f"{weight.shape} (weight layout is [out, in])"
        )
    return data.with_shape((data.shape[0], weight.shape[0]))


def _dense_flops(in_types, out_type, attrs) -> float:
    data, weight = in_types
    return 2.0 * data.shape[0] * weight.shape[0] * weight.shape[1]


register_op(
    OpSpec(
        name="dense",
        arity=2,
        pattern=OpPattern.OUT_FUSABLE,
        kind=OpKind.GEMM,
        infer_type=_dense_infer,
        compute=lambda xs, attrs: xs[0] @ xs[1].T,
        flops=_dense_flops,
    )
)


def _matmul_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    a, b = in_types
    if a.rank != 2 or b.rank != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return a.with_shape((a.shape[0], b.shape[1]))


register_op(
    OpSpec(
        name="matmul",
        arity=2,
        pattern=OpPattern.OUT_FUSABLE,
        kind=OpKind.GEMM,
        infer_type=_matmul_infer,
        compute=lambda xs, attrs: xs[0] @ xs[1],
        flops=lambda i, o, a: 2.0 * i[0].shape[0] * i[0].shape[1] * i[1].shape[1],
    )
)


def _batch_matmul_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    a, b = in_types
    if a.rank != 3 or b.rank != 3:
        raise ShapeError(f"batch_matmul expects rank-3 inputs, got {a.shape}, {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"batch_matmul shape mismatch: {a.shape} @ {b.shape}")
    return a.with_shape((a.shape[0], a.shape[1], b.shape[2]))


register_op(
    OpSpec(
        name="batch_matmul",
        arity=2,
        pattern=OpPattern.OUT_FUSABLE,
        kind=OpKind.GEMM,
        infer_type=_batch_matmul_infer,
        compute=lambda xs, attrs: np.matmul(xs[0], xs[1]),
        flops=lambda i, o, a: 2.0
        * i[0].shape[0]
        * i[0].shape[1]
        * i[0].shape[2]
        * i[1].shape[2],
    )
)


# ---------------------------------------------------------------------------
# conv2d (NCHW)
# ---------------------------------------------------------------------------


def conv2d_output_shape(
    data: tuple[int, ...],
    weight: tuple[int, ...],
    strides: tuple[int, int],
    padding: tuple[int, int],
) -> tuple[int, int, int, int]:
    """Output shape of a NCHW conv with OIHW weights."""
    n, c, h, w = data
    oc, ic, kh, kw = weight
    if ic != c:
        raise ShapeError(
            f"conv2d channel mismatch: data {data} vs weight {weight}"
        )
    oh = (h + 2 * padding[0] - kh) // strides[0] + 1
    ow = (w + 2 * padding[1] - kw) // strides[1] + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"conv2d produces empty output for data {data}, kernel {weight}, "
            f"strides {strides}, padding {padding}"
        )
    return (n, oc, oh, ow)


def _conv_attrs(attrs: Attrs) -> tuple[tuple[int, int], tuple[int, int]]:
    strides = tuple(int(s) for s in attrs.get("strides", (1, 1)))
    padding = tuple(int(p) for p in attrs.get("padding", (0, 0)))
    return strides, padding  # type: ignore[return-value]


def _conv2d_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    data, weight = in_types
    if data.rank != 4 or weight.rank != 4:
        raise ShapeError(
            f"conv2d expects NCHW data and OIHW weight, got {data.shape}, {weight.shape}"
        )
    strides, padding = _conv_attrs(attrs)
    return data.with_shape(
        conv2d_output_shape(data.shape, weight.shape, strides, padding)
    )


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    strides: tuple[int, int],
    padding: tuple[int, int],
) -> np.ndarray:
    """Unfold NCHW input into [N, C*KH*KW, OH*OW] patches."""
    n, c, h, w = x.shape
    ph, pw = padding
    sh, sw = strides
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    # Strided view: [N, C, KH, KW, OH, OW]
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
        writeable=False,
    )
    return view.reshape(n, c * kh * kw, oh * ow)


def _conv2d_compute(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    data, weight = xs
    strides, padding = _conv_attrs(attrs)
    _, _, kh, kw = weight.shape
    n, oc, oh, ow = conv2d_output_shape(data.shape, weight.shape, strides, padding)
    cols = im2col(data, kh, kw, strides, padding)  # [N, IC*KH*KW, OH*OW]
    return np.matmul(weight.reshape(oc, -1), cols).reshape(n, oc, oh, ow)


def _conv2d_flops(in_types, out_type, attrs) -> float:
    weight = in_types[1]
    _, ic, kh, kw = weight.shape
    return 2.0 * out_type.num_elements * ic * kh * kw


def _conv2d_parallelism(in_types, out_type, attrs) -> float:
    # Implicit-GEMM convolution kernels tile over the k×k reduction window
    # as well as the output elements, so late, spatially-small layers still
    # expose enough parallel work to keep a GPU reasonably busy.
    _, _, kh, kw = in_types[1].shape
    return float(out_type.num_elements * kh * kw)


register_op(
    OpSpec(
        name="conv2d",
        arity=2,
        pattern=OpPattern.OUT_FUSABLE,
        kind=OpKind.CONV,
        infer_type=_conv2d_infer,
        compute=_conv2d_compute,
        flops=_conv2d_flops,
        parallelism=_conv2d_parallelism,
    )
)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def _pool_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    (data,) = in_types
    if data.rank != 4:
        raise ShapeError(f"pooling expects NCHW input, got {data.shape}")
    k = tuple(int(v) for v in attrs.get("pool_size", (2, 2)))
    strides = tuple(int(v) for v in attrs.get("strides", k))
    padding = tuple(int(v) for v in attrs.get("padding", (0, 0)))
    n, c, h, w = data.shape
    oh = (h + 2 * padding[0] - k[0]) // strides[0] + 1
    ow = (w + 2 * padding[1] - k[1]) // strides[1] + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"pooling produces empty output for input {data.shape}")
    return data.with_shape((n, c, oh, ow))


def _pool_patches(
    xs: Sequence[np.ndarray], attrs: Attrs, pad_value: float
) -> list[np.ndarray]:
    """The ``k0*k1`` strided ``[N, C, OH, OW]`` slices of the padded
    input, one per window offset, row-major (``kh`` outer, ``kw`` inner)."""
    (data,) = xs
    k0, k1 = (int(v) for v in attrs.get("pool_size", (2, 2)))
    sh, sw = (int(v) for v in attrs.get("strides", (k0, k1)))
    ph, pw = (int(v) for v in attrs.get("padding", (0, 0)))
    _, _, h, w = data.shape
    if ph or pw:
        data = np.pad(
            data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=pad_value
        )
    rows = sh * ((h + 2 * ph - k0) // sh)
    cols = sw * ((w + 2 * pw - k1) // sw)
    return [
        data[:, :, i : i + rows + 1 : sh, j : j + cols + 1 : sw]
        for i in range(k0)
        for j in range(k1)
    ]


def _max_pool2d(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    first, *rest = _pool_patches(xs, attrs, -np.inf)
    out = first.copy()
    for v in rest:
        np.maximum(out, v, out=out)
    return out


def _avg_pool2d(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    # Summed in window order, divided once: the rendered C loop's order.
    first, *rest = _pool_patches(xs, attrs, 0.0)
    out = first.copy()
    for v in rest:
        np.add(out, v, out=out)
    out /= len(rest) + 1
    return out


register_op(
    OpSpec(
        name="max_pool2d",
        arity=1,
        pattern=OpPattern.OUT_FUSABLE,
        kind=OpKind.REDUCTION,
        infer_type=_pool_infer,
        compute=_max_pool2d,
        flops=lambda i, o, a: float(
            o.num_elements
            * int(a.get("pool_size", (2, 2))[0])
            * int(a.get("pool_size", (2, 2))[1])
        ),
    )
)

register_op(
    OpSpec(
        name="avg_pool2d",
        arity=1,
        pattern=OpPattern.OUT_FUSABLE,
        kind=OpKind.REDUCTION,
        infer_type=_pool_infer,
        compute=_avg_pool2d,
        flops=lambda i, o, a: float(
            o.num_elements
            * int(a.get("pool_size", (2, 2))[0])
            * int(a.get("pool_size", (2, 2))[1])
        ),
    )
)


def _gap_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    (data,) = in_types
    if data.rank != 4:
        raise ShapeError(f"global_avg_pool2d expects NCHW, got {data.shape}")
    n, c, _, _ = data.shape
    return data.with_shape((n, c, 1, 1))


register_op(
    OpSpec(
        name="global_avg_pool2d",
        arity=1,
        pattern=OpPattern.OUT_FUSABLE,
        kind=OpKind.REDUCTION,
        infer_type=_gap_infer,
        compute=lambda xs, attrs: xs[0].mean(axis=(2, 3), keepdims=True),
        flops=lambda i, o, a: float(i[0].num_elements),
        parallelism=lambda i, o, a: float(i[0].num_elements),
    )
)


# ---------------------------------------------------------------------------
# normalization (inference form)
# ---------------------------------------------------------------------------


def _batch_norm_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    data, gamma, beta, mean, var = in_types
    c = data.shape[1]
    for t, nm in ((gamma, "gamma"), (beta, "beta"), (mean, "mean"), (var, "var")):
        if t.shape != (c,):
            raise ShapeError(f"batch_norm {nm} must have shape ({c},), got {t.shape}")
    return data


def _batch_norm_compute(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    data, gamma, beta, mean, var = xs
    eps = float(attrs.get("epsilon", 1e-5))
    view = (1, -1) + (1,) * (data.ndim - 2)
    scale = (gamma / np.sqrt(var + eps)).reshape(view)
    shift = (beta - mean * gamma / np.sqrt(var + eps)).reshape(view)
    return data * scale + shift


register_op(
    OpSpec(
        name="batch_norm",
        arity=5,
        pattern=OpPattern.BROADCAST,
        kind=OpKind.ELEMWISE,
        infer_type=_batch_norm_infer,
        compute=_batch_norm_compute,
        flops=lambda i, o, a: 2.0 * o.num_elements,
    )
)


def _layer_norm_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    data, gamma, beta = in_types
    d = data.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm gamma/beta must have shape ({d},), got "
            f"{gamma.shape}/{beta.shape}"
        )
    return data


def _layer_norm_compute(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    data, gamma, beta = xs
    eps = float(attrs.get("epsilon", 1e-5))
    mean = data.mean(axis=-1, keepdims=True)
    var = data.var(axis=-1, keepdims=True)
    return (data - mean) / np.sqrt(var + eps) * gamma + beta


register_op(
    OpSpec(
        name="layer_norm",
        arity=3,
        pattern=OpPattern.REDUCE,
        kind=OpKind.REDUCTION,
        infer_type=_layer_norm_infer,
        compute=_layer_norm_compute,
        flops=lambda i, o, a: 8.0 * o.num_elements,
    )
)


# ---------------------------------------------------------------------------
# depthwise conv2d (MobileNet-style separable convolutions)
# ---------------------------------------------------------------------------


def _depthwise_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    data, weight = in_types
    if data.rank != 4 or weight.rank != 4:
        raise ShapeError(
            f"depthwise_conv2d expects NCHW data and C1HW weight, got "
            f"{data.shape}, {weight.shape}"
        )
    c, one, kh, kw = weight.shape
    if c != data.shape[1] or one != 1:
        raise ShapeError(
            f"depthwise weight must be [{data.shape[1]}, 1, kh, kw], got "
            f"{weight.shape}"
        )
    strides, padding = _conv_attrs(attrs)
    n, _, h, w = data.shape
    oh = (h + 2 * padding[0] - kh) // strides[0] + 1
    ow = (w + 2 * padding[1] - kw) // strides[1] + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError("depthwise_conv2d produces empty output")
    return data.with_shape((n, c, oh, ow))


def _depthwise_compute(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    data, weight = xs
    strides, padding = _conv_attrs(attrs)
    c, _, kh, kw = weight.shape
    n, _, h, w = data.shape
    ph, pw = padding
    sh, sw = strides
    if ph or pw:
        data = np.pad(data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    s0, s1, s2, s3 = data.strides
    view = np.lib.stride_tricks.as_strided(
        data,
        shape=(n, c, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
        writeable=False,
    )
    patches = view.reshape(n, c, kh * kw, oh, ow)
    out = np.einsum(
        "nckij,ck->ncij", patches, weight.reshape(c, kh * kw), optimize=True
    )
    return np.ascontiguousarray(out)


register_op(
    OpSpec(
        name="depthwise_conv2d",
        arity=2,
        pattern=OpPattern.OUT_FUSABLE,
        kind=OpKind.CONV,
        infer_type=_depthwise_infer,
        compute=_depthwise_compute,
        flops=lambda i, o, a: 2.0
        * o.num_elements
        * i[1].shape[2]
        * i[1].shape[3],
        parallelism=lambda i, o, a: float(
            o.num_elements * i[1].shape[2] * i[1].shape[3]
        ),
    )
)
