"""Tests for Node construction and parameter materialization."""

import numpy as np
import pytest

from repro.errors import IRError, ShapeError
from repro.ir.dtype import INT64, TensorType
from repro.ir.node import FILL_CHUNK, Initializer, Node, NodeKind
from repro.ir.weights import param_rng
from repro.models import MODEL_NAMES, build_model


def _const(**kw):
    defaults = dict(id="c", kind=NodeKind.CONST, ty=TensorType((3, 2)))
    defaults.update(kw)
    return Node(**defaults)


class TestNodeInvariants:
    def test_op_node_requires_op_name(self):
        with pytest.raises(IRError):
            Node(id="x", kind=NodeKind.OP, ty=TensorType((1,)))

    def test_input_node_rejects_op_name(self):
        with pytest.raises(IRError):
            Node(id="x", kind=NodeKind.INPUT, ty=TensorType((1,)), op="relu")

    def test_leaf_rejects_inputs(self):
        with pytest.raises(IRError):
            Node(
                id="x", kind=NodeKind.CONST, ty=TensorType((1,)), inputs=("y",)
            )

    def test_literal_requires_payload(self):
        with pytest.raises(IRError):
            _const(init=Initializer.LITERAL)

    def test_kind_predicates(self):
        n = Node(
            id="a", kind=NodeKind.OP, ty=TensorType((1,)), op="relu", inputs=("x",)
        )
        assert n.is_op and not n.is_input and not n.is_const

    def test_with_inputs(self):
        n = Node(
            id="a", kind=NodeKind.OP, ty=TensorType((1,)), op="relu", inputs=("x",)
        )
        m = n.with_inputs(("y",))
        assert m.inputs == ("y",) and m.id == n.id and m.op == "relu"

    def test_with_id(self):
        n = _const()
        assert n.with_id("c2").id == "c2"


class TestMaterialize:
    def test_normal_is_deterministic_per_generator(self):
        n = _const()
        a = n.materialize(np.random.default_rng(1))
        b = n.materialize(np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 2) and a.dtype == np.float32

    def test_zeros_and_ones(self):
        z = _const(init=Initializer.ZEROS).materialize(np.random.default_rng(0))
        o = _const(init=Initializer.ONES).materialize(np.random.default_rng(0))
        assert z.sum() == 0.0 and o.sum() == 6.0

    def test_uniform_int_respects_high(self):
        n = _const(
            ty=TensorType((100,), INT64),
            init=Initializer.UNIFORM_INT,
            attrs={"init_high": 7},
        )
        v = n.materialize(np.random.default_rng(0))
        assert v.dtype == np.int64
        assert v.min() >= 0 and v.max() < 7

    def test_literal_payload_cast(self):
        n = _const(
            ty=TensorType((2,)),
            init=Initializer.LITERAL,
            literal=np.asarray([1, 2], dtype=np.int32),
        )
        v = n.materialize(np.random.default_rng(0))
        assert v.dtype == np.float32
        np.testing.assert_array_equal(v, [1.0, 2.0])

    def test_init_scale_attr(self):
        wide = _const(attrs={"init_scale": 10.0}).materialize(
            np.random.default_rng(0)
        )
        narrow = _const(attrs={"init_scale": 0.001}).materialize(
            np.random.default_rng(0)
        )
        assert wide.std() > narrow.std() * 100

    def test_materialize_non_const_raises(self):
        n = Node(id="x", kind=NodeKind.INPUT, ty=TensorType((1,)))
        with pytest.raises(IRError):
            n.materialize(np.random.default_rng(0))


def _reference(node, seed):
    """The pre-store definition of a constant's data, written out in full:
    the generator derivation and the one-line initializers it replaced."""
    import hashlib

    dtype = node.ty.dtype.to_numpy()
    if node.init is Initializer.LITERAL:
        return node.literal.astype(dtype)
    if node.init is Initializer.ZEROS:
        return np.zeros(node.ty.shape, dtype=dtype)
    if node.init is Initializer.ONES:
        return np.ones(node.ty.shape, dtype=dtype)
    digest = hashlib.sha256(node.id.encode("utf-8")).digest()
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:4], "little")])
    )
    if node.init is Initializer.UNIFORM_INT:
        high = int(node.attrs.get("init_high", 2))
        return rng.integers(0, high, size=node.ty.shape).astype(dtype)
    scale = float(node.attrs.get("init_scale", 0.05))
    return (rng.standard_normal(node.ty.shape) * scale).astype(dtype)


def _assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(
        got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}")
    )


class TestMaterializeAgainstReference:
    """The chunked fill against the one-liner it replaced, bit for bit.

    The interpreter reference and the weight store both call
    ``Node.materialize``, so a differential run cannot see a wrong chunk;
    this pins it against a definition that is not the generator."""

    def test_no_zero_element_constant_exists(self):
        # So the fill never sees an empty destination.
        with pytest.raises(ShapeError):
            _const(ty=TensorType((0,)))

    @pytest.mark.parametrize("scale", [0.05, 3.0])
    @pytest.mark.parametrize(
        "n", [1, FILL_CHUNK - 1, FILL_CHUNK, FILL_CHUNK + 1, 3 * FILL_CHUNK + 7]
    )
    def test_normal_at_chunk_edges(self, n, scale):
        node = _const(ty=TensorType((n,)), attrs={"init_scale": scale})
        want = _reference(node, seed=5)
        _assert_bits_equal(node.materialize(param_rng(5, node.id)), want)
        out = np.full(n, np.nan, dtype=np.float32)
        assert node.materialize(param_rng(5, node.id), out=out) is out
        _assert_bits_equal(out, want)
        # A caller's staging buffer sets the chunk length.
        out[:] = np.nan
        node.materialize(param_rng(5, node.id), out=out, scratch=np.empty(7))
        _assert_bits_equal(out, want)

    @pytest.mark.parametrize(
        "node",
        [
            _const(init=Initializer.ZEROS),
            _const(init=Initializer.ONES),
            _const(
                ty=TensorType((50, 3), INT64),
                init=Initializer.UNIFORM_INT,
                attrs={"init_high": 9},
            ),
            _const(
                ty=TensorType((2,)),
                init=Initializer.LITERAL,
                literal=np.asarray([1.5, -2.0]),
            ),
        ],
        ids=lambda n: n.init.value,
    )
    def test_other_initializers(self, node):
        got = node.materialize(param_rng(3, node.id))
        _assert_bits_equal(got, _reference(node, seed=3))

    def test_rejects_a_mismatched_destination(self):
        node = _const()
        with pytest.raises(IRError):
            node.materialize(param_rng(0, "c"), out=np.empty((2, 3), np.float32))
        with pytest.raises(IRError):
            node.materialize(param_rng(0, "c"), out=np.empty((3, 2), np.float64))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_every_tiny_zoo_const(self, name):
        graph = build_model(name, tiny=True)
        params = graph.materialize_params(0)
        for node in graph.const_nodes():
            _assert_bits_equal(params[node.id], _reference(node, seed=0))
