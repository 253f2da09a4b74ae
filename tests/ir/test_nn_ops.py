"""Tests for compute-heavy NN operators against naive references."""

import numpy as np
import pytest

from repro.compiler.native import native_available
from repro.errors import ShapeError
from repro.ir import GraphBuilder
from repro.ir.dtype import TensorType
from repro.ir.ops import get_op
from repro.ir.ops.nn import conv2d_output_shape, im2col
from repro.testing.oracle import pinned_native_compiler


def _run(name, arrays, **attrs):
    return get_op(name).compute([np.asarray(a) for a in arrays], attrs)


def _infer(name, types, **attrs):
    return get_op(name).infer_type(types, attrs)


def naive_conv2d(x, w, strides, padding):
    """Reference convolution via explicit loops."""
    n, c, h, wdt = x.shape
    oc, ic, kh, kw = w.shape
    sh, sw = strides
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wdt + 2 * pw - kw) // sw + 1
    out = np.zeros((n, oc, oh, ow), dtype=x.dtype)
    for b in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[b, o, i, j] = np.sum(patch * w[o])
    return out


def naive_pool(x, attrs, reduce, pad_value):
    """Reference pooling: one padded window per output cell, reduced by
    ``reduce`` (``np.max`` propagates NaN, like the kernel must)."""
    k0, k1 = attrs["pool_size"]
    sh, sw = attrs["strides"]
    ph, pw = attrs["padding"]
    n, c, h, w = x.shape
    xp = np.pad(
        x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=pad_value
    )
    oh = (h + 2 * ph - k0) // sh + 1
    ow = (w + 2 * pw - k1) // sw + 1
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    window = xp[b, ch, i * sh : i * sh + k0, j * sw : j * sw + k1]
                    out[b, ch, i, j] = reduce(window)
    return out


def _read_cell(rng, size, k, s, p):
    """A random input index that some pooling window reads (a stride
    larger than the kernel skips cells)."""
    out = (size + 2 * p - k) // s + 1
    read = {o * s - p + a for o in range(out) for a in range(k)}
    cells = sorted(read & set(range(size)))
    return cells[int(rng.integers(0, len(cells)))]


def _pool_cases():
    """Seeded pooling geometries: every kernel 1-4 x stride 1-3 x padding
    0..kernel-1 on the row axis (so kernel > stride is covered), a random
    window on the column axis, batch alternating 1 and 2.  Each geometry
    comes with three inputs: plain, all-negative (a padded cell that is
    not -inf would win the max) and one NaN in a cell a window reads
    (must propagate)."""
    rng = np.random.default_rng(2021)
    cases = []
    for k0 in range(1, 5):
        for sh in range(1, 4):
            for ph in range(k0):
                k1 = int(rng.integers(1, 5))
                sw = int(rng.integers(1, 4))
                pw = int(rng.integers(0, k1))
                shape = (
                    1 + len(cases) % 2,
                    int(rng.integers(1, 4)),
                    int(rng.integers(max(1, k0 - 2 * ph), 10)),
                    int(rng.integers(max(1, k1 - 2 * pw), 10)),
                )
                plain = rng.standard_normal(shape).astype(np.float32)
                negative = -np.abs(plain) - np.float32(0.5)
                nan = plain.copy()
                nan[
                    int(rng.integers(0, shape[0])),
                    int(rng.integers(0, shape[1])),
                    _read_cell(rng, shape[2], k0, sh, ph),
                    _read_cell(rng, shape[3], k1, sw, pw),
                ] = np.nan
                attrs = {
                    "pool_size": (k0, k1),
                    "strides": (sh, sw),
                    "padding": (ph, pw),
                }
                cases.append((attrs, (plain, negative, nan)))
    return cases


POOL_CASES = _pool_cases()


class TestDense:
    def test_matches_numpy(self, rng):
        x = rng.standard_normal((3, 8)).astype(np.float32)
        w = rng.standard_normal((5, 8)).astype(np.float32)
        np.testing.assert_allclose(_run("dense", [x, w]), x @ w.T, rtol=1e-5)

    def test_infer(self):
        t = _infer("dense", [TensorType((3, 8)), TensorType((5, 8))])
        assert t.shape == (3, 5)

    def test_reduction_mismatch_raises(self):
        with pytest.raises(ShapeError):
            _infer("dense", [TensorType((3, 8)), TensorType((5, 4))])

    def test_flops(self):
        spec = get_op("dense")
        i = [TensorType((3, 8)), TensorType((5, 8))]
        assert spec.flops(i, TensorType((3, 5)), {}) == 2 * 3 * 5 * 8


class TestMatmul:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 5)).astype(np.float32)
        np.testing.assert_allclose(_run("matmul", [a, b]), a @ b, rtol=1e-5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            _infer("matmul", [TensorType((3, 4)), TensorType((5, 6))])


class TestBatchMatmul:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((2, 3, 4)).astype(np.float32)
        b = rng.standard_normal((2, 4, 5)).astype(np.float32)
        np.testing.assert_allclose(
            _run("batch_matmul", [a, b]), np.matmul(a, b), rtol=1e-5
        )

    def test_batch_mismatch_raises(self):
        with pytest.raises(ShapeError):
            _infer(
                "batch_matmul", [TensorType((2, 3, 4)), TensorType((3, 4, 5))]
            )


class TestConv2d:
    @pytest.mark.parametrize(
        "strides,padding",
        [
            ((1, 1), (0, 0)),
            ((2, 2), (1, 1)),
            ((1, 2), (2, 0)),
            ((2, 1), (0, 1)),
            ((3, 2), (1, 2)),
        ],
    )
    def test_matches_naive(self, rng, strides, padding):
        x = rng.standard_normal((2, 3, 8, 9)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        got = _run("conv2d", [x, w], strides=strides, padding=padding)
        want = naive_conv2d(x, w, strides, padding)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_matches_naive_non_square_kernel(self, rng, batch):
        x = rng.standard_normal((batch, 3, 7, 10)).astype(np.float32)
        w = rng.standard_normal((5, 3, 2, 4)).astype(np.float32)
        got = _run("conv2d", [x, w], strides=(2, 3), padding=(1, 2))
        assert got.flags.c_contiguous
        want = naive_conv2d(x, w, (2, 3), (1, 2))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_output_shape_helper(self):
        assert conv2d_output_shape((1, 3, 224, 224), (64, 3, 7, 7), (2, 2), (3, 3)) == (
            1, 64, 112, 112,
        )

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            _infer("conv2d", [TensorType((1, 3, 8, 8)), TensorType((4, 5, 3, 3))])

    def test_empty_output_raises(self):
        with pytest.raises(ShapeError):
            _infer(
                "conv2d",
                [TensorType((1, 3, 2, 2)), TensorType((4, 3, 5, 5))],
            )

    def test_im2col_shape(self, rng):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, 3, 3, (1, 1), (0, 0))
        assert cols.shape == (2, 27, 16)

    def test_flops_scale_with_kernel(self):
        spec = get_op("conv2d")
        i = [TensorType((1, 3, 8, 8)), TensorType((4, 3, 3, 3))]
        out = spec.infer_type(i, {})
        assert spec.flops(i, out, {}) == 2.0 * out.num_elements * 27

    def test_parallelism_includes_window(self):
        spec = get_op("conv2d")
        i = [TensorType((1, 3, 8, 8)), TensorType((4, 3, 3, 3))]
        out = spec.infer_type(i, {})
        assert spec.parallelism(i, out, {}) == out.num_elements * 9


class TestPooling:
    def test_max_pool(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        out = _run("max_pool2d", [x], pool_size=(2, 2), strides=(2, 2))
        assert out.shape == (1, 2, 2, 2)
        assert out[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_avg_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = _run("avg_pool2d", [x], pool_size=(2, 2), strides=(2, 2))
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, :2, :2].mean())

    def test_max_pool_with_padding(self, rng):
        x = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        out = _run(
            "max_pool2d", [x], pool_size=(3, 3), strides=(2, 2), padding=(1, 1)
        )
        assert out.shape == (1, 1, 3, 3)
        # Padded cells are -inf for max pooling, so corners still reflect
        # only real data.
        assert out[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        out = _run("global_avg_pool2d", [x])
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(
            out[..., 0, 0], x.mean(axis=(2, 3)), rtol=1e-5
        )

    def test_pool_empty_output_raises(self):
        with pytest.raises(ShapeError):
            _infer("max_pool2d", [TensorType((1, 1, 2, 2))], pool_size=(4, 4))

    def test_pool_requires_nchw(self):
        with pytest.raises(ShapeError):
            _infer("max_pool2d", [TensorType((2, 4))])


class TestPoolingSweep:
    """The windowed kernels against a per-cell loop on random shapes."""

    @pytest.mark.parametrize("attrs,inputs", POOL_CASES)
    def test_max_pool_bit_exact(self, attrs, inputs):
        for x in inputs:
            got = _run("max_pool2d", [x], **attrs)
            assert got.flags.c_contiguous and got.dtype == x.dtype
            want = naive_pool(x, attrs, np.max, -np.inf)
            np.testing.assert_array_equal(got, want)
        assert np.isnan(got).any()  # the NaN input's window propagated it

    @pytest.mark.parametrize("attrs,inputs", POOL_CASES)
    def test_avg_pool_matches(self, attrs, inputs):
        for x in inputs:
            got = _run("avg_pool2d", [x], **attrs)
            assert got.flags.c_contiguous and got.dtype == x.dtype
            np.testing.assert_allclose(
                got, naive_pool(x, attrs, np.mean, 0.0), rtol=1e-6, atol=1e-6
            )
        assert np.isnan(got).any()

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_native_max_pool_bit_identical(self):
        """``max_pool2d`` is in ``EXACT_OPS``: rendered C (tile pinned, as
        the oracle's native arms build it) must equal the NumPy kernel
        bit for bit on every sweep input.  One module, one ``cc`` batch."""
        b = GraphBuilder("pool_sweep")
        outs, feeds, want = [], {}, []
        for i, (attrs, inputs) in enumerate(POOL_CASES):
            for j, x in enumerate(inputs):
                name = f"x{i}_{j}"
                outs.append(b.op("max_pool2d", b.input(name, x.shape), **attrs))
                feeds[name] = x
                want.append(_run("max_pool2d", [x], **attrs))
        module = pinned_native_compiler().compile_cpu(b.build(*outs))
        assert all(k.backend == "native" for k in module.kernels)
        for got, ref in zip(module.run(feeds), want):
            np.testing.assert_array_equal(got, ref)


class TestNorms:
    def test_batch_norm_inference_form(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        gamma = rng.standard_normal(3).astype(np.float32)
        beta = rng.standard_normal(3).astype(np.float32)
        mean = rng.standard_normal(3).astype(np.float32)
        var = np.abs(rng.standard_normal(3)).astype(np.float32) + 0.5
        out = _run("batch_norm", [x, gamma, beta, mean, var], epsilon=1e-5)
        v = (1, 3, 1, 1)
        want = (x - mean.reshape(v)) / np.sqrt(var.reshape(v) + 1e-5) * gamma.reshape(
            v
        ) + beta.reshape(v)
        np.testing.assert_allclose(out, want, rtol=1e-4, atol=1e-5)

    def test_batch_norm_param_shape_mismatch_raises(self):
        c3, c4 = TensorType((3,)), TensorType((4,))
        with pytest.raises(ShapeError):
            _infer("batch_norm", [TensorType((1, 3, 2, 2)), c3, c3, c3, c4])

    def test_layer_norm_statistics(self, rng):
        x = rng.standard_normal((4, 16)).astype(np.float32)
        gamma = np.ones(16, dtype=np.float32)
        beta = np.zeros(16, dtype=np.float32)
        out = _run("layer_norm", [x, gamma, beta])
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_matches_float64_definition(self, rng):
        # The op is both the interpreter reference and the NumPy kernel,
        # so only an independent definition catches a wrong epsilon.
        # Rows at two spreads and three offsets; the bound scales float32
        # rounding by the magnitudes the normalisation amplifies.
        d, epsilon = 64, 1e-5
        x = np.concatenate(
            [
                offset + spread * rng.standard_normal((8, d))
                for spread in (1.0, 0.1)
                for offset in (0.0, 0.5, 3.0)
            ]
        ).astype(np.float32)
        gamma = rng.standard_normal(d).astype(np.float32)
        beta = rng.standard_normal(d).astype(np.float32)
        x64, g64, b64 = (a.astype(np.float64) for a in (x, gamma, beta))
        mu = x64.sum(axis=-1, keepdims=True) / d
        var = ((x64 - mu) ** 2).sum(axis=-1, keepdims=True) / d
        want = (x64 - mu) / np.sqrt(var + epsilon) * g64 + b64
        got = _run("layer_norm", [x, gamma, beta])  # default epsilon
        eps = np.finfo(np.float32).eps
        bound = 16 * eps * (
            np.abs(g64) * (np.abs(x64) + np.abs(mu)) / np.sqrt(var)
            + np.abs(b64)
        )
        assert np.all(np.abs(got.astype(np.float64) - want) <= bound)

    def test_layer_norm_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            _infer(
                "layer_norm",
                [TensorType((4, 16)), TensorType((8,)), TensorType((16,))],
            )
