"""Recurrent operators: LSTM and GRU layers.

A recurrent layer is a single OPAQUE op in the graph (the compiler does not
fuse across it) but its *cost* is modelled as ``seq_len`` serially-dependent
steps of small GEMMs.  On the simulated GPU each step pays kernel-launch
overhead and exposes only batch×hidden parallelism, which is the mechanism
behind the paper's observation (§III-B, Fig. 4) that RNNs run slower on GPU
than CPU at batch size 1.

Layout convention: data is ``[batch, seq_len, input_size]``, weights follow
the PyTorch convention ``w_ih: [G*H, I]``, ``w_hh: [G*H, H]``, ``bias:
[G*H]`` with gate order (i, f, g, o) for LSTM and (r, z, n) for GRU.  The
one bias is the input-side bias (for GRU's ``n`` gate it sits outside
``r * (h @ w_hn.T)``).  The kernels project every step's input in one
GEMM before the loop, so each step multiplies only the hidden state.
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _rnn_infer(
    in_types: Sequence[TensorType], attrs: Attrs, gates: int
) -> TensorType:
    data, w_ih, w_hh, bias = in_types
    if data.rank != 3:
        raise ShapeError(f"recurrent data must be [B, T, I], got {data.shape}")
    b, t, i = data.shape
    hidden = int(attrs["hidden_size"])
    if w_ih.shape != (gates * hidden, i):
        raise ShapeError(
            f"w_ih must be [{gates * hidden}, {i}], got {w_ih.shape}"
        )
    if w_hh.shape != (gates * hidden, hidden):
        raise ShapeError(
            f"w_hh must be [{gates * hidden}, {hidden}], got {w_hh.shape}"
        )
    if bias.shape != (gates * hidden,):
        raise ShapeError(f"bias must be [{gates * hidden}], got {bias.shape}")
    if bool(attrs.get("return_sequences", True)):
        return data.with_shape((b, t, hidden))
    return data.with_shape((b, hidden))


def _rnn_flops(
    in_types: Sequence[TensorType], out_type: TensorType, attrs: Attrs, gates: int
) -> float:
    data = in_types[0]
    b, t, i = data.shape
    h = int(attrs["hidden_size"])
    gemm = 2.0 * gates * h * (i + h) * b
    pointwise = 12.0 * gates * h * b
    return t * (gemm + pointwise)


def _rnn_parallelism(
    in_types: Sequence[TensorType], out_type: TensorType, attrs: Attrs, gates: int
) -> float:
    # Per-step parallel work only: steps are serially dependent.
    b = in_types[0].shape[0]
    h = int(attrs["hidden_size"])
    return float(b * gates * h)


def _rnn_steps(in_types: Sequence[TensorType], attrs: Attrs) -> int:
    return int(in_types[0].shape[1])


def _input_projection(
    data: np.ndarray, w_ih: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """``x_t @ w_ih.T + bias`` for every step ``t``, as one ``[B*T, I]``
    GEMM: ``[B, T, G*H]``."""
    b, t, i = data.shape
    return (data.reshape(b * t, i) @ w_ih.T + bias).reshape(b, t, -1)


def _lstm_compute(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    data, w_ih, w_hh, bias = xs
    b, t, _ = data.shape
    hidden = int(attrs["hidden_size"])
    return_sequences = bool(attrs.get("return_sequences", True))
    h = np.zeros((b, hidden), dtype=data.dtype)
    c = np.zeros((b, hidden), dtype=data.dtype)
    outputs = np.empty((b, t, hidden), dtype=data.dtype) if return_sequences else None
    xw = _input_projection(data, w_ih, bias)
    for step in range(t):
        gates = xw[:, step, :] + h @ w_hh.T
        gi, gf, gg, go = np.split(gates, 4, axis=1)
        i_t = _sigmoid(gi)
        f_t = _sigmoid(gf)
        g_t = np.tanh(gg)
        o_t = _sigmoid(go)
        c = f_t * c + i_t * g_t
        h = o_t * np.tanh(c)
        if outputs is not None:
            outputs[:, step, :] = h
    return outputs if outputs is not None else h


register_op(
    OpSpec(
        name="lstm",
        arity=4,
        pattern=OpPattern.OPAQUE,
        kind=OpKind.RECURRENT,
        infer_type=lambda i, a: _rnn_infer(i, a, gates=4),
        compute=_lstm_compute,
        flops=lambda i, o, a: _rnn_flops(i, o, a, gates=4),
        parallelism=lambda i, o, a: _rnn_parallelism(i, o, a, gates=4),
        sequential_steps=_rnn_steps,
        kernels_per_step=2,
    )
)


def _gru_compute(xs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    data, w_ih, w_hh, bias = xs
    b, t, _ = data.shape
    hidden = int(attrs["hidden_size"])
    return_sequences = bool(attrs.get("return_sequences", True))
    h = np.zeros((b, hidden), dtype=data.dtype)
    outputs = np.empty((b, t, hidden), dtype=data.dtype) if return_sequences else None
    xw = _input_projection(data, w_ih, bias)
    for step in range(t):
        x_r, x_z, x_n = np.split(xw[:, step, :], 3, axis=1)
        h_r, h_z, h_n = np.split(h @ w_hh.T, 3, axis=1)
        r = _sigmoid(x_r + h_r)
        z = _sigmoid(x_z + h_z)
        n = np.tanh(x_n + r * h_n)
        h = (1.0 - z) * n + z * h
        if outputs is not None:
            outputs[:, step, :] = h
    return outputs if outputs is not None else h


register_op(
    OpSpec(
        name="gru",
        arity=4,
        pattern=OpPattern.OPAQUE,
        kind=OpKind.RECURRENT,
        infer_type=lambda i, a: _rnn_infer(i, a, gates=3),
        compute=_gru_compute,
        flops=lambda i, o, a: _rnn_flops(i, o, a, gates=3),
        parallelism=lambda i, o, a: _rnn_parallelism(i, o, a, gates=3),
        sequential_steps=_rnn_steps,
        kernels_per_step=2,
    )
)


def _reverse_infer(in_types: Sequence[TensorType], attrs: Attrs) -> TensorType:
    (data,) = in_types
    axis = int(attrs.get("axis", 1))
    if not -data.rank <= axis < data.rank:
        raise ShapeError(f"reverse axis {axis} out of range for rank {data.rank}")
    return data


register_op(
    OpSpec(
        name="reverse",
        arity=1,
        pattern=OpPattern.INJECTIVE,
        kind=OpKind.MEMORY,
        infer_type=_reverse_infer,
        compute=lambda xs, attrs: np.ascontiguousarray(
            np.flip(xs[0], axis=int(attrs.get("axis", 1)))
        ),
        flops=lambda i, o, a: 0.0,
    )
)
