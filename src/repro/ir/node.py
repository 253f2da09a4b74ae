"""Graph nodes.

A node is either a placeholder (``INPUT``), a parameter/constant (``CONST``),
or an operator application (``OP``).  Every node produces exactly one tensor;
multi-output constructs (e.g. bidirectional RNNs) are expressed with several
nodes.  Constants carry an *initializer spec* instead of materialized data so
that timing-only simulation never has to allocate large weight tensors; the
runtime materializes parameters lazily and deterministically from a seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import IRError
from repro.ir.dtype import TensorType

__all__ = ["NodeKind", "Initializer", "Node", "FILL_CHUNK"]

#: Float64 elements a ``NORMAL`` constant draws per step: 128 KiB, so the
#: draw, the scaling and the cast of one chunk stay in a core's L2 cache.
FILL_CHUNK = 16384


class NodeKind(enum.Enum):
    """What a graph node is: placeholder, parameter, or operator."""

    INPUT = "input"
    CONST = "const"
    OP = "op"


class Initializer(enum.Enum):
    """How a CONST node's data is materialized."""

    NORMAL = "normal"  # N(0, scale) from the graph seed
    ZEROS = "zeros"
    ONES = "ones"
    UNIFORM_INT = "uniform_int"  # integer in [0, high) — for index tensors
    LITERAL = "literal"  # small literal payload carried on the node


@dataclass(frozen=True)
class Node:
    """One vertex of the computation DAG.

    Attributes:
        id: unique identifier within its graph.
        kind: INPUT / CONST / OP.
        op: operator name for OP nodes, ``None`` otherwise.
        inputs: ids of argument nodes, in positional order.
        attrs: operator attributes (static configuration).
        ty: the node's output tensor type.
        init: initializer spec for CONST nodes.
        literal: literal payload for ``Initializer.LITERAL`` constants.
    """

    id: str
    kind: NodeKind
    ty: TensorType
    op: str | None = None
    inputs: tuple[str, ...] = ()
    attrs: Mapping[str, object] = field(default_factory=dict)
    init: Initializer = Initializer.NORMAL
    literal: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind is NodeKind.OP and not self.op:
            raise IRError(f"OP node {self.id!r} must name an operator")
        if self.kind is not NodeKind.OP and self.op:
            raise IRError(f"{self.kind.value} node {self.id!r} must not name an operator")
        if self.kind is not NodeKind.OP and self.inputs:
            raise IRError(f"{self.kind.value} node {self.id!r} cannot have inputs")
        if self.init is Initializer.LITERAL and self.literal is None:
            raise IRError(f"LITERAL const {self.id!r} is missing its payload")

    @property
    def is_op(self) -> bool:
        return self.kind is NodeKind.OP

    @property
    def is_input(self) -> bool:
        return self.kind is NodeKind.INPUT

    @property
    def is_const(self) -> bool:
        return self.kind is NodeKind.CONST

    def with_inputs(self, inputs: tuple[str, ...]) -> "Node":
        """Copy of this node with rewired inputs."""
        return Node(
            id=self.id,
            kind=self.kind,
            ty=self.ty,
            op=self.op,
            inputs=inputs,
            attrs=self.attrs,
            init=self.init,
            literal=self.literal,
        )

    def with_id(self, new_id: str) -> "Node":
        """Copy of this node under a different id."""
        return Node(
            id=new_id,
            kind=self.kind,
            ty=self.ty,
            op=self.op,
            inputs=self.inputs,
            attrs=self.attrs,
            init=self.init,
            literal=self.literal,
        )

    def materialize(
        self,
        rng: np.random.Generator | None,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Create this CONST node's data from the given generator.

        A ``LITERAL`` returns its payload (no generator needed, ``out``
        ignored).  Every other initializer writes into ``out`` — a
        C-contiguous array of this node's shape and dtype, allocated here
        when omitted — and returns it.  ``NORMAL`` draws in float64
        chunks, scales each in place and casts it into its slice, which
        is bit-identical to ``(rng.standard_normal(shape) *
        scale).astype(dtype)`` without that expression's two full-size
        float64 temporaries.  A chunk is staged in ``scratch`` (a float64
        vector, one chunk per its length) or, when omitted, in a fresh
        buffer of :data:`FILL_CHUNK` elements.
        """
        if not self.is_const:
            raise IRError(f"cannot materialize non-const node {self.id!r}")
        np_dtype = self.ty.dtype.to_numpy()
        if self.init is Initializer.LITERAL:
            assert self.literal is not None
            return self.literal.astype(np_dtype, copy=False)
        if out is None:
            out = np.empty(self.ty.shape, dtype=np_dtype)
        elif (
            out.shape != tuple(self.ty.shape)
            or out.dtype != np_dtype
            or not out.flags.c_contiguous
        ):
            raise IRError(
                f"cannot materialize {self.id!r} into a {out.dtype} array of "
                f"shape {out.shape}: need a C-contiguous {np_dtype} "
                f"{tuple(self.ty.shape)}"
            )
        if self.init is Initializer.ZEROS:
            out.fill(0)
        elif self.init is Initializer.ONES:
            out.fill(1)
        elif self.init is Initializer.UNIFORM_INT:
            high = int(self.attrs.get("init_high", 2))
            out[...] = rng.integers(0, high, size=self.ty.shape)
        else:
            scale = float(self.attrs.get("init_scale", 0.05))
            flat = out.reshape(-1)
            if scratch is None:
                scratch = np.empty(min(FILL_CHUNK, flat.size))
            step = scratch.size
            for start in range(0, flat.size, step):
                part = scratch[: flat.size - start]
                rng.standard_normal(out=part)
                part *= scale
                flat[start : start + part.size] = part
        return out
