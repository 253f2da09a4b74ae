"""NumPy op kernels cost what their memory traffic costs.

DUET prices subgraphs by the time of compiled kernels (§IV-B), so a NumPy
op implementation that runs a generic slow path (``pow`` for ``x**3``, a
reduction over a 6-D strided view) makes the light op dominate the heavy
ones and skews every measured number built on it.  Asserted, as ratios
measured in one process so the host's speed cancels out:

* every registered unary elementwise op on a float32 128x1024 array takes
  at most 25x ``np.tanh`` on the same array;
* ``max_pool2d`` / ``avg_pool2d`` (3x3, stride 2, pad 1 on
  ``(1, 64, 112, 112)``, ``wide_deep``'s stem) take at most 20x one
  ``np.copy`` of their input.

With ``-s`` it also prints the ten slowest kernels of the three Table I
models' NumPy modules at paper scale, with GFLOP/s from
``KernelCost.flops``.  That table is informational: its GEMM rows move
with where the BLAS worker thread lands (on a 2-vCPU host a small GEMM
can take a flat ~8 ms for seconds at a time), which is why the
assertions above time no BLAS call.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_op_kernels.py -q -s``
"""

import time

import numpy as np
from conftest import emit

from repro.bench import EVAL_MODELS, format_table
from repro.compiler import Compiler
from repro.ir import make_inputs
from repro.ir.ops import OpKind, get_op, list_ops
from repro.models import build_model

UNARY_BOUND = 25.0
POOL_BOUND = 20.0
#: Attributes for the unary ops that require some.
UNARY_ATTRS = {"clip": {"min": -1.0, "max": 1.0}}
POOL_ATTRS = {"pool_size": (3, 3), "strides": (2, 2), "padding": (1, 1)}


def _best_ms(fn, repeats=15):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _ratios(baseline, candidates):
    """Each candidate's best time over the baseline's, the baseline timed
    right before each candidate so a slow spell of the host hits both."""
    rows = []
    for name, fn in candidates.items():
        fn()  # warm: first-call allocations are not the kernel's cost
        base = _best_ms(baseline)
        ms = _best_ms(fn)
        rows.append({"op": name, "ms": round(ms, 4), "ratio": round(ms / base, 1)})
    return rows


def test_unary_elementwise_ops_near_tanh():
    x = np.random.default_rng(0).standard_normal((128, 1024)).astype(np.float32)
    ops = [
        n
        for n in list_ops()
        if get_op(n).arity == 1 and get_op(n).kind is OpKind.ELEMWISE
    ]
    assert "gelu" in ops and "tanh" in ops
    with np.errstate(invalid="ignore", divide="ignore"):  # sqrt/log of x < 0
        rows = _ratios(
            lambda: np.tanh(x),
            {
                n: lambda n=n: get_op(n).compute([x], UNARY_ATTRS.get(n, {}))
                for n in ops
            },
        )
    emit(format_table(rows, title="Unary elementwise ops vs np.tanh (128x1024 f32)"))
    slow = [r for r in rows if r["ratio"] > UNARY_BOUND]
    assert not slow, slow


def test_pooling_near_a_copy():
    x = np.random.default_rng(0).standard_normal((1, 64, 112, 112)).astype(np.float32)
    rows = _ratios(
        lambda: np.copy(x),
        {
            n: lambda n=n: get_op(n).compute([x], POOL_ATTRS)
            for n in ("max_pool2d", "avg_pool2d")
        },
    )
    emit(format_table(rows, title="Pooling 3x3/2 pad 1 on (1,64,112,112) vs np.copy"))
    slow = [r for r in rows if r["ratio"] > POOL_BOUND]
    assert not slow, slow


def _kernel_rows(model):
    module = Compiler().compile_cpu(build_model(model))
    env = dict(module.params)
    env.update(make_inputs(module.graph))
    rows = []
    for kernel in module.kernels:
        args = [env[i] for i in kernel.input_ids]
        env[kernel.output_id] = kernel(args)
        ms = _best_ms(lambda: kernel(args), repeats=3)
        rows.append(
            {
                "model": model,
                "op": "+".join(module.graph.node(n).op for n in kernel.node_ids),
                "inputs": " ".join("x".join(map(str, a.shape)) for a in args),
                "ms": round(ms, 3),
                "gflops": round(kernel.cost.flops / ms / 1e6, 2),
            }
        )
    return rows


def test_slowest_paper_scale_kernels():
    rows = [row for model in EVAL_MODELS for row in _kernel_rows(model)]
    rows.sort(key=lambda r: -r["ms"])
    emit(format_table(rows[:10], title="Ten slowest NumPy kernels (Table I scale)"))
    assert all(r["ms"] > 0 for r in rows)
