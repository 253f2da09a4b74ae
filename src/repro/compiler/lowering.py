"""Lowering: optimized graph + fusion plan → executable compiled module.

Each fusion group becomes one :class:`~repro.compiler.kernel.CompiledKernel`
whose NumPy closure evaluates the member ops in topological order.  Leaf
nodes (inputs and parameters) become kernel arguments; parameters are
read lazily from the module's :class:`~repro.ir.weights.WeightStore` and
cached on the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import CompilerError, ExecutionError
from repro.compiler.fusion import FusionGroup, plan_fusion
from repro.compiler.kernel import CompiledKernel, KernelCost
from repro.compiler.target import Target
from repro.ir.graph import Graph
from repro.ir.ops import get_op
from repro.ir.weights import WeightStore

__all__ = ["CompiledModule", "lower", "build_kernel", "load_params"]


def _group_cost(graph: Graph, group: FusionGroup) -> KernelCost:
    """Aggregate cost metadata over a fusion group."""
    members = set(group.node_ids)
    flops = 0.0
    external_in: set[str] = set()
    for nid in group.node_ids:
        node = graph.node(nid)
        spec = get_op(node.op)
        in_types = [graph.node(i).ty for i in node.inputs]
        flops += spec.flops(in_types, node.ty, node.attrs)
        for src in node.inputs:
            if src not in members:
                external_in.add(src)
    bytes_in = float(sum(graph.node(i).ty.size_bytes for i in external_in))
    bytes_out = float(graph.node(group.output_id).ty.size_bytes)

    anchor = graph.node(group.anchor_id)
    anchor_spec = get_op(anchor.op)
    anchor_in_types = [graph.node(i).ty for i in anchor.inputs]
    parallelism = anchor_spec.parallelism(anchor_in_types, anchor.ty, anchor.attrs)
    steps = anchor_spec.sequential_steps(anchor_in_types, anchor.attrs)
    return KernelCost(
        flops=flops,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        parallelism=parallelism,
        sequential_steps=steps,
        kernels_per_step=anchor_spec.kernels_per_step,
        kind=anchor_spec.kind,
    )


def _numpy_kernel(graph: Graph, group: FusionGroup, target: Target) -> CompiledKernel:
    """The NumPy-closure kernel of one fusion group."""
    members = set(group.node_ids)
    external: list[str] = []
    seen: set[str] = set()
    for nid in group.node_ids:
        for src in graph.node(nid).inputs:
            if src not in members and src not in seen:
                seen.add(src)
                external.append(src)

    # Pre-resolve the evaluation schedule so the closure does no graph work.
    schedule: list[tuple[str, object, tuple[str, ...], Mapping[str, object]]] = []
    for nid in group.node_ids:
        node = graph.node(nid)
        schedule.append((nid, get_op(node.op).compute, node.inputs, node.attrs))
    output_id = group.output_id
    arg_index = {src: i for i, src in enumerate(external)}

    def fn(args: Sequence[np.ndarray]) -> np.ndarray:
        env: dict[str, np.ndarray] = {
            src: args[i] for src, i in arg_index.items()
        }
        for nid, compute, inputs, attrs in schedule:
            env[nid] = compute([env[i] for i in inputs], attrs)
        return env[output_id]

    ops = "_".join(graph.node(n).op for n in group.node_ids[:3])
    prefix = "fused_" if len(group.node_ids) > 1 else ""
    return CompiledKernel(
        name=f"{prefix}{ops}__{group.output_id}",
        node_ids=tuple(group.node_ids),
        input_ids=tuple(external),
        output_id=output_id,
        fn=fn,
        cost=_group_cost(graph, group),
        target_name=target.name,
    )


def _select_native(
    graph: Graph,
    groups: Sequence[FusionGroup],
    kernels: Sequence[CompiledKernel],
    native: "object | None",
) -> list[CompiledKernel]:
    """Swap in rendered C for every kernel the native layer resolves to
    it; the rest keep their closures, with the reason recorded."""
    from repro.compiler.native import build_native_kernels

    picks = build_native_kernels(
        graph, [(g, k.input_ids, k.fn) for g, k in zip(groups, kernels)], native
    )
    return [
        replace(kernel, reason=reason)
        if chosen is None
        else replace(
            kernel,
            fn=chosen,
            run_into=chosen.run_into,
            backend="native",
            exact=chosen.exact,
            reason=reason,
        )
        for kernel, (chosen, reason) in zip(kernels, picks)
    ]


def build_kernel(
    graph: Graph,
    group: FusionGroup,
    target: Target,
    native: "object | None" = None,
) -> CompiledKernel:
    """Generate the executable kernel for one fusion group.

    With a native-backend target the group is also rendered to C and,
    unless ``native`` pins the variant, timed against the NumPy closure;
    the kernel runs whichever measured faster.  A group the renderer
    rejects (or a missing system compiler) keeps the closure for that
    kernel only — the module transparently mixes backends.
    """
    kernel = _numpy_kernel(graph, group, target)
    if target.is_native:
        (kernel,) = _select_native(graph, [group], [kernel], native)
    return kernel


@dataclass
class CompiledModule:
    """An executable, costed module for one target.

    Attributes:
        graph: the (optimized) source graph.
        target: backend the module was generated for.
        kernels: kernels in topological execution order.
        input_ids: graph placeholder ids, in declaration order.
        output_ids: graph output node ids.
        weights: the store the parameters are read from — the lowering
            compiler's, shared by every module it produced; a module
            lowered on its own gets a store of its own.
        param_seed: the seed the parameters are generated under.
    """

    graph: Graph
    target: Target
    kernels: list[CompiledKernel]
    input_ids: tuple[str, ...]
    output_ids: tuple[str, ...]
    _params: dict[str, np.ndarray] | None = field(default=None, repr=False)
    param_seed: int = 0
    weights: WeightStore = field(default_factory=WeightStore, repr=False)

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Const id -> array, from the weight store (cached)."""
        if self._params is None:
            self._params = self.weights.params(self.graph, self.param_seed)
        return self._params

    @cached_property
    def kernel_names(self) -> tuple[str, ...]:
        """Kernel names in execution order (what the simulator's timeline
        records label per-kernel durations with)."""
        return tuple(k.name for k in self.kernels)

    def total_flops(self) -> float:
        return sum(k.cost.flops for k in self.kernels)

    def total_launches(self) -> int:
        """Device-kernel launches per inference (the quantity fusion reduces)."""
        return sum(k.cost.total_launches for k in self.kernels)

    def run(self, inputs: Mapping[str, np.ndarray]) -> list[np.ndarray]:
        """Numerically execute the module (no timing model)."""
        env: dict[str, np.ndarray] = dict(self.params)
        for iid in self.input_ids:
            if iid not in inputs:
                raise ExecutionError(f"missing input {iid!r}")
            env[iid] = np.asarray(inputs[iid])
        for kernel in self.kernels:
            env[kernel.output_id] = kernel([env[i] for i in kernel.input_ids])
        return [env[o] for o in self.output_ids]


def load_params(modules: Iterable[CompiledModule]) -> None:
    """Load every module's missing parameters: one batch per weight store,
    then each module's cached view of them."""
    modules = list(modules)
    by_store: dict[int, tuple[WeightStore, list]] = {}
    for module in modules:
        entry = by_store.setdefault(id(module.weights), (module.weights, []))
        entry[1].append((module.graph, module.param_seed))
    for store, graphs in by_store.values():
        store.load(graphs)
    for module in modules:
        module.params


def lower(
    graph: Graph,
    target: Target,
    fuse: bool = True,
    native: "object | None" = None,
) -> CompiledModule:
    """Lower an optimized graph to a compiled module for ``target``.

    With ``fuse=False`` every operator becomes its own kernel — this is how
    the framework-like baselines (PyTorch/TensorFlow operators-in-sequence
    execution, §III-A) are modelled.
    """
    if fuse:
        groups = plan_fusion(graph)
    else:
        groups = [
            FusionGroup(node_ids=[nid], anchor_id=nid, output_id=nid)
            for nid in graph.topo_order()
            if graph.node(nid).is_op
        ]
    produced = {g.output_id for g in groups}
    for out in graph.outputs:
        if graph.node(out).is_op and out not in produced:
            raise CompilerError(
                f"fusion plan does not surface graph output {out!r}"
            )
    # Group-creation order is not a valid execution order (a group keeps
    # absorbing consumers after later groups are created); ordering kernels
    # by the topological index of their *output* node is.
    topo_index = {nid: i for i, nid in enumerate(graph.topo_order())}
    groups.sort(key=lambda g: topo_index[g.output_id])
    kernels = [_numpy_kernel(graph, g, target) for g in groups]
    if target.is_native:
        # The whole module at once: its missing objects compile in one
        # concurrent batch before any kernel is timed.
        kernels = _select_native(graph, groups, kernels, native)
    return CompiledModule(
        graph=graph,
        target=target,
        kernels=kernels,
        input_ids=tuple(n.id for n in graph.input_nodes()),
        output_ids=graph.outputs,
    )
