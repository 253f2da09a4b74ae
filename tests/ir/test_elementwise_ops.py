"""Numeric and shape tests for elementwise/broadcast operators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ShapeError, TypeCheckError
from repro.ir.dtype import FLOAT32, FLOAT64, TensorType
from repro.ir.ops import get_op


def _run(name, arrays, **attrs):
    return get_op(name).compute([np.asarray(a) for a in arrays], attrs)


def _infer(name, types, **attrs):
    return get_op(name).infer_type(types, attrs)


class TestBinaryOps:
    @pytest.mark.parametrize(
        "name,fn",
        [
            ("add", np.add),
            ("subtract", np.subtract),
            ("multiply", np.multiply),
            ("divide", np.divide),
            ("maximum", np.maximum),
            ("minimum", np.minimum),
        ],
    )
    def test_matches_numpy(self, name, fn, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((3, 4)).astype(np.float32) + 2.0
        np.testing.assert_allclose(_run(name, [a, b]), fn(a, b), rtol=1e-6)

    def test_broadcast_shape_inference(self):
        t = _infer("add", [TensorType((3, 1, 4)), TensorType((2, 4))])
        assert t.shape == (3, 2, 4)

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ShapeError):
            _infer("add", [TensorType((3, 4)), TensorType((2, 4))])

    def test_dtype_mismatch_raises(self):
        with pytest.raises(TypeCheckError):
            _infer("add", [TensorType((2,), FLOAT32), TensorType((2,), FLOAT64)])

    def test_broadcast_compute(self):
        a = np.ones((2, 3), dtype=np.float32)
        b = np.asarray([1.0, 2.0, 3.0], dtype=np.float32)
        np.testing.assert_allclose(_run("add", [a, b]), a + b)


class TestUnaryOps:
    def test_relu(self):
        x = np.asarray([-1.0, 0.0, 2.5], dtype=np.float32)
        np.testing.assert_allclose(_run("relu", [x]), [0.0, 0.0, 2.5])

    def test_sigmoid_range(self, rng):
        x = rng.standard_normal((10,)).astype(np.float32) * 5
        y = _run("sigmoid", [x])
        assert np.all((y > 0) & (y < 1))

    def test_tanh_matches_numpy(self, rng):
        x = rng.standard_normal((5, 5)).astype(np.float32)
        np.testing.assert_allclose(_run("tanh", [x]), np.tanh(x), rtol=1e-6)

    def test_identity_copies(self):
        x = np.ones((2, 2), dtype=np.float32)
        y = _run("identity", [x])
        assert y is not x
        np.testing.assert_array_equal(y, x)

    def test_gelu_fixed_points(self):
        x = np.asarray([0.0], dtype=np.float32)
        np.testing.assert_allclose(_run("gelu", [x]), [0.0], atol=1e-7)
        # gelu(x) ~ x for large positive x
        big = np.asarray([10.0], dtype=np.float32)
        np.testing.assert_allclose(_run("gelu", [big]), [10.0], rtol=1e-3)

    def test_gelu_matches_float64_definition(self, rng):
        # The op is both the interpreter reference and the NumPy kernel,
        # so only an independent definition catches a wrong constant.
        # Tanh form, in float64, bounded by float32 rounding.
        x = (rng.standard_normal(4096) * 2.0).astype(np.float32)
        x64 = x.astype(np.float64)
        inner = np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64**3)
        want = 0.5 * x64 * (1.0 + np.tanh(inner))
        got = _run("gelu", [x]).astype(np.float64)
        eps = np.finfo(np.float32).eps
        assert np.all(np.abs(got - want) <= 4 * eps * np.abs(x64))

    def test_unary_preserves_type(self):
        t = TensorType((4, 4))
        assert _infer("relu", [t]) == t

    @given(
        hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
            elements=st.floats(-10, 10, width=32),
        )
    )
    def test_negate_roundtrip(self, x):
        np.testing.assert_array_equal(
            _run("negative", [_run("negative", [x])]), x
        )


class TestLeakyReluAndClip:
    def test_leaky_relu_default_alpha(self):
        x = np.asarray([-2.0, 3.0], dtype=np.float32)
        np.testing.assert_allclose(_run("leaky_relu", [x]), [-0.02, 3.0])

    def test_leaky_relu_custom_alpha(self):
        x = np.asarray([-1.0], dtype=np.float32)
        np.testing.assert_allclose(_run("leaky_relu", [x], alpha=0.5), [-0.5])

    def test_clip(self):
        x = np.asarray([-5.0, 0.5, 5.0], dtype=np.float32)
        np.testing.assert_allclose(
            _run("clip", [x], min=-1.0, max=1.0), [-1.0, 0.5, 1.0]
        )


class TestBiasAdd:
    def test_last_axis_default(self, rng):
        x = rng.standard_normal((2, 5)).astype(np.float32)
        b = rng.standard_normal((5,)).astype(np.float32)
        np.testing.assert_allclose(_run("bias_add", [x, b]), x + b, rtol=1e-6)

    def test_channel_axis(self, rng):
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        b = rng.standard_normal((3,)).astype(np.float32)
        out = _run("bias_add", [x, b], axis=1)
        np.testing.assert_allclose(out, x + b.reshape(1, 3, 1, 1), rtol=1e-6)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            _infer("bias_add", [TensorType((2, 5)), TensorType((4,))])

    def test_non_vector_bias_raises(self):
        with pytest.raises(ShapeError):
            _infer("bias_add", [TensorType((2, 5)), TensorType((5, 1))])


# ----------------------------------------------------------------------
# The ``out=`` form: bit-identical to computing and copying in

#: Every op with an ``out=`` form, and its arity.
OUT_FORM_OPS = {
    "add": 2,
    "subtract": 2,
    "multiply": 2,
    "divide": 2,
    "maximum": 2,
    "minimum": 2,
    "bias_add": 2,
    "relu": 1,
    "negative": 1,
    "abs": 1,
    "sqrt": 1,
    "exp": 1,
    "log": 1,
    "tanh": 1,
}

_BITS = {2: np.uint16, 4: np.uint32, 8: np.uint64}


def _awkward(rng, shape, dtype):
    """Normal values with NaN, -0.0, +0.0, +-inf and negatives mixed in."""
    x = rng.standard_normal(shape) * 3.0
    specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, -1.0])
    mask = rng.random(shape) < 0.3
    x[mask] = rng.choice(specials, size=int(mask.sum()))
    return x.astype(dtype)


def _out_form_case(rng, name, dtype):
    """Random arguments (broadcasting ones for binary ops) and attrs."""
    if name == "bias_add":
        shape = tuple(int(d) for d in rng.integers(1, 6, size=rng.integers(1, 5)))
        axis = int(rng.integers(-len(shape), len(shape)))
        return [_awkward(rng, shape, dtype), _awkward(rng, (shape[axis],), dtype)], {
            "axis": axis
        }
    shape = tuple(int(d) for d in rng.integers(1, 6, size=rng.integers(1, 4)))
    if OUT_FORM_OPS[name] == 1:
        return [_awkward(rng, shape, dtype)], {}
    other = tuple(d if rng.random() < 0.6 else 1 for d in shape)
    other = other[int(rng.integers(0, len(other))) :]
    args = [_awkward(rng, shape, dtype), _awkward(rng, other, dtype)]
    if rng.random() < 0.5:
        args.reverse()
    return args, {}


class TestOutForm:
    def test_the_table(self):
        from repro.ir.ops import list_ops

        assert {
            name for name in list_ops() if get_op(name).compute_into is not None
        } == set(OUT_FORM_OPS)

    @pytest.mark.parametrize("name", sorted(OUT_FORM_OPS))
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_bit_identical_to_copy_in(self, name, dtype):
        spec = get_op(name)
        rng = np.random.default_rng([len(name), np.dtype(dtype).itemsize])
        bits = _BITS[np.dtype(dtype).itemsize]
        for _ in range(25):
            args, attrs = _out_form_case(rng, name, dtype)
            with np.errstate(all="ignore"):
                want = spec.compute(args, attrs)
                copied = np.empty(want.shape, dtype=dtype)
                np.copyto(copied, want)
                written = np.full(want.shape, 7, dtype=dtype)
                assert spec.compute_into(args, attrs, written) is written
            assert want.dtype == written.dtype
            np.testing.assert_array_equal(written.view(bits), copied.view(bits))

    @pytest.mark.parametrize("name", sorted(OUT_FORM_OPS))
    def test_never_casts(self, name):
        args, attrs = _out_form_case(np.random.default_rng(0), name, np.float64)
        with np.errstate(all="ignore"):
            shape = get_op(name).compute(args, attrs).shape
            out = np.empty(shape, dtype=np.float32)
            with pytest.raises(TypeError):
                get_op(name).compute_into(args, attrs, out)
