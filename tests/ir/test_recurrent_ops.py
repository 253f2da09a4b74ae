"""Tests for LSTM/GRU layer operators."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.ir.dtype import TensorType
from repro.ir.ops import OpKind, OpPattern, get_op


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _make_lstm_inputs(rng, b=2, t=5, i=3, h=4):
    data = rng.standard_normal((b, t, i)).astype(np.float32)
    w_ih = rng.standard_normal((4 * h, i)).astype(np.float32) * 0.3
    w_hh = rng.standard_normal((4 * h, h)).astype(np.float32) * 0.3
    bias = rng.standard_normal((4 * h,)).astype(np.float32) * 0.1
    return data, w_ih, w_hh, bias


def naive_lstm(data, w_ih, w_hh, bias, hidden):
    """Step-by-step reference with explicit gate math."""
    b, t, _ = data.shape
    h = np.zeros((b, hidden), dtype=data.dtype)
    c = np.zeros((b, hidden), dtype=data.dtype)
    outs = []
    for step in range(t):
        gates = data[:, step] @ w_ih.T + h @ w_hh.T + bias
        i_t = _sigmoid(gates[:, :hidden])
        f_t = _sigmoid(gates[:, hidden : 2 * hidden])
        g_t = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        o_t = _sigmoid(gates[:, 3 * hidden :])
        c = f_t * c + i_t * g_t
        h = o_t * np.tanh(c)
        outs.append(h.copy())
    return np.stack(outs, axis=1)


def naive_gru(data, w_ih, w_hh, bias, hidden):
    """Step-by-step PyTorch-convention GRU, gate order (r, z, n).  The one
    bias is the input-side bias; the recurrent side has none, so ``b_n``
    sits outside ``r * (...)``."""
    b, t, _ = data.shape
    h = np.zeros((b, hidden), dtype=data.dtype)
    w_ir, w_iz, w_in = w_ih[:hidden], w_ih[hidden : 2 * hidden], w_ih[2 * hidden :]
    w_hr, w_hz, w_hn = w_hh[:hidden], w_hh[hidden : 2 * hidden], w_hh[2 * hidden :]
    b_r, b_z, b_n = bias[:hidden], bias[hidden : 2 * hidden], bias[2 * hidden :]
    outs = []
    for step in range(t):
        x = data[:, step]
        r = _sigmoid(x @ w_ir.T + b_r + h @ w_hr.T)
        z = _sigmoid(x @ w_iz.T + b_z + h @ w_hz.T)
        n = np.tanh(x @ w_in.T + b_n + r * (h @ w_hn.T))
        h = (1.0 - z) * n + z * h
        outs.append(h.copy())
    return np.stack(outs, axis=1)


class TestLSTM:
    def test_matches_naive_reference(self, rng):
        spec = get_op("lstm")
        for batch in (1, 2):
            data, w_ih, w_hh, bias = _make_lstm_inputs(rng, b=batch)
            want = naive_lstm(data, w_ih, w_hh, bias, 4)
            for seq in (True, False):
                got = spec.compute(
                    [data, w_ih, w_hh, bias],
                    {"hidden_size": 4, "return_sequences": seq},
                )
                np.testing.assert_allclose(
                    got, want if seq else want[:, -1], rtol=1e-4, atol=1e-5
                )

    def test_last_hidden_only(self, rng):
        data, w_ih, w_hh, bias = _make_lstm_inputs(rng)
        spec = get_op("lstm")
        seq = spec.compute(
            [data, w_ih, w_hh, bias], {"hidden_size": 4, "return_sequences": True}
        )
        last = spec.compute(
            [data, w_ih, w_hh, bias], {"hidden_size": 4, "return_sequences": False}
        )
        np.testing.assert_allclose(last, seq[:, -1, :], rtol=1e-6)

    def test_infer_shapes(self):
        types = [
            TensorType((2, 5, 3)),
            TensorType((16, 3)),
            TensorType((16, 4)),
            TensorType((16,)),
        ]
        spec = get_op("lstm")
        assert spec.infer_type(types, {"hidden_size": 4}).shape == (2, 5, 4)
        assert spec.infer_type(
            types, {"hidden_size": 4, "return_sequences": False}
        ).shape == (2, 4)

    def test_weight_shape_mismatch_raises(self):
        types = [
            TensorType((2, 5, 3)),
            TensorType((12, 3)),  # should be 16 x 3
            TensorType((16, 4)),
            TensorType((16,)),
        ]
        with pytest.raises(ShapeError):
            get_op("lstm").infer_type(types, {"hidden_size": 4})

    def test_non_3d_data_raises(self):
        types = [
            TensorType((2, 3)),
            TensorType((16, 3)),
            TensorType((16, 4)),
            TensorType((16,)),
        ]
        with pytest.raises(ShapeError):
            get_op("lstm").infer_type(types, {"hidden_size": 4})

    def test_sequential_steps_equals_seq_len(self):
        spec = get_op("lstm")
        types = [
            TensorType((1, 37, 3)),
            TensorType((16, 3)),
            TensorType((16, 4)),
            TensorType((16,)),
        ]
        assert spec.sequential_steps(types, {"hidden_size": 4}) == 37

    def test_flops_scale_with_seq_len(self):
        spec = get_op("lstm")

        def fl(t):
            types = [
                TensorType((1, t, 8)),
                TensorType((32, 8)),
                TensorType((32, 8)),
                TensorType((32,)),
            ]
            out = spec.infer_type(types, {"hidden_size": 8})
            return spec.flops(types, out, {"hidden_size": 8})

        assert fl(20) == pytest.approx(2 * fl(10))

    def test_metadata(self):
        spec = get_op("lstm")
        assert spec.pattern is OpPattern.OPAQUE
        assert spec.kind is OpKind.RECURRENT

    def test_parallelism_is_per_step(self):
        # Parallelism must not scale with sequence length: steps are serial.
        spec = get_op("lstm")
        short = [
            TensorType((1, 5, 8)),
            TensorType((32, 8)),
            TensorType((32, 8)),
            TensorType((32,)),
        ]
        long = [
            TensorType((1, 500, 8)),
            TensorType((32, 8)),
            TensorType((32, 8)),
            TensorType((32,)),
        ]
        attrs = {"hidden_size": 8}
        p_short = spec.parallelism(short, spec.infer_type(short, attrs), attrs)
        p_long = spec.parallelism(long, spec.infer_type(long, attrs), attrs)
        assert p_short == p_long


class TestGRU:
    @pytest.mark.parametrize("batch", [1, 2])
    def test_matches_naive_reference(self, rng, batch):
        data = rng.standard_normal((batch, 6, 3)).astype(np.float32)
        w_ih = rng.standard_normal((12, 3)).astype(np.float32) * 0.5
        w_hh = rng.standard_normal((12, 4)).astype(np.float32) * 0.5
        bias = rng.standard_normal(12).astype(np.float32) * 0.3
        spec = get_op("gru")
        want = naive_gru(data, w_ih, w_hh, bias, 4)
        for seq in (True, False):
            got = spec.compute(
                [data, w_ih, w_hh, bias], {"hidden_size": 4, "return_sequences": seq}
            )
            np.testing.assert_allclose(
                got, want if seq else want[:, -1], rtol=1e-4, atol=1e-5
            )

    def test_output_shape(self, rng):
        data = rng.standard_normal((2, 6, 3)).astype(np.float32)
        w_ih = rng.standard_normal((12, 3)).astype(np.float32) * 0.3
        w_hh = rng.standard_normal((12, 4)).astype(np.float32) * 0.3
        bias = np.zeros(12, dtype=np.float32)
        out = get_op("gru").compute([data, w_ih, w_hh, bias], {"hidden_size": 4})
        assert out.shape == (2, 6, 4)

    def test_bounded_activations(self, rng):
        data = rng.standard_normal((1, 10, 3)).astype(np.float32) * 3
        w_ih = rng.standard_normal((12, 3)).astype(np.float32)
        w_hh = rng.standard_normal((12, 4)).astype(np.float32)
        bias = np.zeros(12, dtype=np.float32)
        out = get_op("gru").compute([data, w_ih, w_hh, bias], {"hidden_size": 4})
        # GRU hidden state is a convex mix of tanh outputs: stays in (-1, 1).
        assert np.all(np.abs(out) <= 1.0)

    def test_zero_input_zero_bias_gives_zero_start(self):
        data = np.zeros((1, 1, 3), dtype=np.float32)
        w_ih = np.zeros((12, 3), dtype=np.float32)
        w_hh = np.zeros((12, 4), dtype=np.float32)
        bias = np.zeros(12, dtype=np.float32)
        out = get_op("gru").compute([data, w_ih, w_hh, bias], {"hidden_size": 4})
        np.testing.assert_allclose(out, 0.0)

    def test_gru_gate_count_in_weight_check(self):
        types = [
            TensorType((1, 5, 3)),
            TensorType((16, 3)),  # 4 gates = LSTM layout, wrong for GRU
            TensorType((12, 4)),
            TensorType((12,)),
        ]
        with pytest.raises(ShapeError):
            get_op("gru").infer_type(types, {"hidden_size": 4})
