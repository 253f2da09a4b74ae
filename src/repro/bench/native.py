"""Native-vs-NumPy kernel scoreboard over the model zoo.

One row per model: best-of-N wall time for the NumPy closure module and
the native-backend module (rendered C where it measured faster, the
closure elsewhere) on identical feeds, how its kernels resolved (native
/ NumPy by contest / never reached a contest), and the observed ULP
drift against the two-class policy budget.  The CI
``native-smoke`` job and ``benchmarks/bench_native_kernels.py`` both
render these rows and assert on them; keeping the measurement here means
the CLI, the bench suite, and CI can never disagree about methodology.

Timing uses best-of-``repeats`` (min), not mean: on a shared 1-core CI
box the minimum is the stable estimator of the achievable time, and the
speedup ratio of two minima is far less noisy than the ratio of means.
The NumPy and native runs are interleaved round-robin so a transient
stall cannot systematically penalize one side.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.compiler.native import NativeOptions, graph_ulp_budget, max_ulp_diff
from repro.compiler.pipeline import Compiler
from repro.ir.interpreter import make_inputs

__all__ = ["SCOREBOARD_MODELS", "native_scoreboard"]

#: CNN (vgg, resnet, squeezenet, mobilenet) + FFN (wide_deep, mtdnn) +
#: RNN-ish (siamese) coverage — the full tiny zoo.
SCOREBOARD_MODELS = (
    "wide_deep",
    "siamese",
    "mtdnn",
    "resnet",
    "vgg",
    "squeezenet",
    "mobilenet",
)


def _best_of_interleaved(fns: Sequence, repeats: int) -> list[float]:
    """Best-of-``repeats`` per callable, visiting them round-robin so a
    transient CI stall degrades one sample of each contender rather
    than every sample of one of them."""
    for fn in fns:  # warm: ctypes setup / NumPy allocator warmup
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def native_scoreboard(
    models: Sequence[str] = SCOREBOARD_MODELS,
    repeats: int = 5,
    tiny: bool = True,
    native: NativeOptions | None = None,
    seed: int = 0,
) -> list[dict]:
    """Measure every model both ways and return table-ready rows.

    Pass a :class:`NativeOptions` with a dedicated cache to make the
    compile/hit counters attributable to this run (the warm-cache
    zero-compile assertion in the bench does exactly that).
    """
    from repro.models import build_model

    native = native or NativeOptions(autotune=True)
    numpy_compiler = Compiler()
    native_compiler = Compiler(backend="native", native=native)

    rows: list[dict] = []
    for name in models:
        graph = build_model(name, tiny=tiny)
        feeds = make_inputs(graph, seed=seed)
        mod_np = numpy_compiler.compile_cpu(graph)
        mod_nat = native_compiler.compile_cpu(graph)

        out_np = mod_np.run(feeds)
        out_nat = mod_nat.run(feeds)
        drift = max(
            (max_ulp_diff(a, b) for a, b in zip(out_np, out_nat)), default=0.0
        )
        budget = graph_ulp_budget(mod_nat.graph)

        t_np, t_nat = _best_of_interleaved(
            [lambda: mod_np.run(feeds), lambda: mod_nat.run(feeds)], repeats
        )
        n_native = sum(k.backend == "native" for k in mod_nat.kernels)
        n_lost = sum(k.reason == "numpy: lost contest" for k in mod_nat.kernels)
        rows.append(
            {
                "model": name,
                "native": n_native,
                "numpy_won": n_lost,
                # Renderer rejected the group, or its build failed.
                "rejected": len(mod_nat.kernels) - n_native - n_lost,
                "numpy_ms": t_np * 1e3,
                "native_ms": t_nat * 1e3,
                "speedup": t_np / t_nat if t_nat > 0 else float("inf"),
                "max_ulp": drift,
                "ulp_budget": float(budget),
            }
        )
    return rows
