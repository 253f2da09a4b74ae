"""The compiler front door: optimize + lower in one call.

This plays the role TVM plays for DUET (paper §V): given any graph — a
whole model or a partitioned subgraph treated as a standalone model — it
runs graph-level optimization passes and lowers to an executable,
cost-annotated module for a target device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.lowering import CompiledModule, lower
from repro.compiler.pass_manager import PassManager, PassRecord, default_passes
from repro.compiler.target import CPU_TARGET, GPU_TARGET, Target
from repro.ir.graph import Graph

__all__ = ["CompileResult", "compile_graph", "Compiler"]


@dataclass(frozen=True)
class CompileResult:
    """A compiled module plus the optimization trace that produced it."""

    module: CompiledModule
    pass_trace: tuple[PassRecord, ...]


def compile_graph(
    graph: Graph,
    target: Target,
    opt_level: int = 2,
    param_seed: int = 0,
    fuse: bool = True,
    native: "object | None" = None,
) -> CompileResult:
    """Optimize and lower ``graph`` for ``target``.

    Args:
        graph: model or subgraph to compile.
        target: CPU or GPU device, with the kernel backend to lower
            through (``Target.backend``).
        opt_level: 0 = no rewrites, 1 = structural cleanups, 2 = full
            graph-level optimization (default; the paper's TVM baseline).
        param_seed: seed for lazy parameter materialization.
        fuse: disable to get one kernel per operator (framework-like
            execution without fusion).
        native: optional :class:`repro.compiler.native.NativeOptions`
            (cache/autotune/pinned-tile knobs) for native-backend targets.
    """
    pm = PassManager(default_passes(opt_level))
    optimized = pm.run(graph)
    module = lower(optimized, target, fuse=fuse, native=native)
    module.param_seed = param_seed
    return CompileResult(module=module, pass_trace=tuple(pm.trace))


@dataclass
class Compiler:
    """A reusable compiler configuration (opt level, fusion, param seed).

    ``fuse=False`` yields one kernel per operator — used by the
    compiler-awareness ablation to produce the kind of unoptimized timing
    a framework profiler would report (§IV-B).

    ``backend="native"`` also renders fused kernels to C through the
    signature-keyed .so cache and runs each where it measured faster
    than its NumPy closure; kernels that lost or that the renderer
    rejects keep their closures, and the whole path degrades to NumPy
    when no system compiler exists.  ``native`` carries the
    cache/autotune/pinned-tile knobs
    (:class:`repro.compiler.native.NativeOptions`).
    """

    opt_level: int = 2
    param_seed: int = 0
    fuse: bool = True
    backend: str = "numpy"
    native: "object | None" = None

    def compile(self, graph: Graph, target: Target) -> CompiledModule:
        if self.backend != target.backend:
            target = target.with_backend(self.backend)
        return compile_graph(
            graph,
            target,
            opt_level=self.opt_level,
            param_seed=self.param_seed,
            fuse=self.fuse,
            native=self.native,
        ).module

    def compile_cpu(self, graph: Graph) -> CompiledModule:
        return self.compile(graph, CPU_TARGET)

    def compile_gpu(self, graph: Graph) -> CompiledModule:
        return self.compile(graph, GPU_TARGET)
