"""The computation graph: a DAG of tensor operators with adjacency lists.

This mirrors the paper's §V: the Relay-style expression IR is translated to
an adjacency-list graph representation that partitioning and scheduling work
on.  Nodes are stored in insertion order (which is always a valid topological
order for graphs built through :class:`~repro.ir.builder.GraphBuilder`), and
both predecessor and consumer adjacency is available.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.errors import GraphValidationError, IRError
from repro.ir.dtype import TensorType
from repro.ir.node import Node
from repro.ir.ops import get_op
from repro.ir.weights import WeightStore

__all__ = ["Graph"]


class Graph:
    """A directed acyclic computation graph.

    Args:
        name: human-readable model name.
        nodes: nodes in any order; ids must be unique.
        outputs: ids of the nodes whose values the graph returns.
    """

    def __init__(self, name: str, nodes: Iterable[Node], outputs: Iterable[str]):
        self.name = name
        self._nodes: dict[str, Node] = {}
        for node in nodes:
            if node.id in self._nodes:
                raise GraphValidationError(f"duplicate node id {node.id!r}")
            self._nodes[node.id] = node
        self.outputs: tuple[str, ...] = tuple(outputs)
        if not self.outputs:
            raise GraphValidationError("graph must declare at least one output")
        self._consumers: dict[str, tuple[str, ...]] | None = None
        self._topo: tuple[str, ...] | None = None
        self.validate()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node(self, node_id: str) -> Node:
        """Fetch a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise IRError(f"unknown node id {node_id!r}") from exc

    @property
    def nodes(self) -> Mapping[str, Node]:
        """Read-only view of all nodes keyed by id."""
        return dict(self._nodes)

    def input_nodes(self) -> list[Node]:
        """Placeholder nodes, in insertion order."""
        return [n for n in self._nodes.values() if n.is_input]

    def const_nodes(self) -> list[Node]:
        """Constant/parameter nodes, in insertion order."""
        return [n for n in self._nodes.values() if n.is_const]

    def op_nodes(self) -> list[Node]:
        """Operator nodes, in insertion order."""
        return [n for n in self._nodes.values() if n.is_op]

    def output_types(self) -> list[TensorType]:
        """Types of the declared outputs."""
        return [self.node(o).ty for o in self.outputs]

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------

    def predecessors(self, node_id: str) -> tuple[str, ...]:
        """Ids of the nodes feeding ``node_id`` (positional, may repeat)."""
        return self.node(node_id).inputs

    def consumers(self, node_id: str) -> tuple[str, ...]:
        """Ids of the nodes that consume ``node_id``'s output."""
        if self._consumers is None:
            cons: dict[str, list[str]] = {nid: [] for nid in self._nodes}
            for node in self._nodes.values():
                for src in node.inputs:
                    # A node may consume the same value twice; record once
                    # per edge so fan-out counts are exact.
                    cons[src].append(node.id)
            self._consumers = {k: tuple(v) for k, v in cons.items()}
        return self._consumers[node_id]

    def topo_order(self) -> tuple[str, ...]:
        """Node ids in a deterministic topological order (Kahn's algorithm,
        ties broken by insertion order)."""
        if self._topo is not None:
            return self._topo
        indegree = {nid: 0 for nid in self._nodes}
        for node in self._nodes.values():
            for src in node.inputs:
                indegree[node.id] += 1
                if src not in self._nodes:
                    raise GraphValidationError(
                        f"node {node.id!r} references unknown input {src!r}"
                    )
        order: list[str] = []
        ready = deque(nid for nid in self._nodes if indegree[nid] == 0)
        while ready:
            nid = ready.popleft()
            order.append(nid)
            for consumer in self.consumers(nid):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._nodes):
            raise GraphValidationError("graph contains a cycle")
        self._topo = tuple(order)
        return self._topo

    # ------------------------------------------------------------------
    # validation / utilities
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphValidationError`.

        Verifies edge integrity, acyclicity, operator arity, and that every
        OP node's recorded output type matches re-inferred shape inference.
        """
        for out in self.outputs:
            if out not in self._nodes:
                raise GraphValidationError(f"unknown output node {out!r}")
        for node in self._nodes.values():
            for src in node.inputs:
                if src not in self._nodes:
                    raise GraphValidationError(
                        f"node {node.id!r} references unknown input {src!r}"
                    )
        self.topo_order()  # raises on cycles
        for node in self._nodes.values():
            if not node.is_op:
                continue
            spec = get_op(node.op)  # raises UnknownOpError
            if spec.arity is not None and len(node.inputs) != spec.arity:
                raise GraphValidationError(
                    f"{node.op} node {node.id!r} expects {spec.arity} inputs, "
                    f"got {len(node.inputs)}"
                )
            in_types = [self.node(i).ty for i in node.inputs]
            inferred = spec.infer_type(in_types, node.attrs)
            if inferred != node.ty:
                raise GraphValidationError(
                    f"node {node.id!r} ({node.op}) declares type {node.ty} "
                    f"but shape inference gives {inferred}"
                )

    def total_flops(self) -> float:
        """Total FLOPs of one forward pass."""
        total = 0.0
        for node in self.op_nodes():
            spec = get_op(node.op)
            in_types = [self.node(i).ty for i in node.inputs]
            total += spec.flops(in_types, node.ty, node.attrs)
        return total

    def num_params(self) -> int:
        """Total number of scalar parameters."""
        return sum(n.ty.num_elements for n in self.const_nodes())

    def materialize_params(self, seed: int = 0) -> dict[str, np.ndarray]:
        """Deterministically create all parameter tensors.

        Each constant gets its own generator derived from (seed, node id)
        (:func:`~repro.ir.weights.param_rng`), so values do not depend on
        materialization order or on other nodes.  This is a throwaway
        :class:`~repro.ir.weights.WeightStore`: the same batch, and the
        same arrays, a compiler's store would hold.
        """
        return WeightStore().params(self, seed)

    def with_outputs(self, outputs: Iterable[str]) -> "Graph":
        """Copy of this graph with different declared outputs."""
        return Graph(self.name, self._nodes.values(), outputs)

    def subgraph_node_ids(self) -> set[str]:
        """Ids of nodes reachable backwards from the outputs."""
        seen: set[str] = set()
        stack = list(self.outputs)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self.node(nid).inputs)
        return seen

    def pruned(self) -> "Graph":
        """Copy with nodes unreachable from the outputs removed."""
        live = self.subgraph_node_ids()
        return Graph(
            self.name,
            [n for n in self._nodes.values() if n.id in live],
            self.outputs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Graph(name={self.name!r}, nodes={len(self._nodes)}, "
            f"outputs={list(self.outputs)})"
        )
