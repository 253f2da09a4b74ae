"""Native C backend vs NumPy closures over the model zoo.

The scoreboard times each model the way serving runs it: the whole-model
module as a one-task plan (:func:`~repro.runtime.plan.single_device_plan`
on ``"cpu"``) through an :class:`~repro.runtime.session.EngineSession`,
so kernels write into the session's arena (native kernels and NumPy
kernels with an ``out=`` form in place) exactly as the per-kernel
contest timed them.  One row per model: best-of-N wall time of the NumPy
and the native-backend session (rendered C where it measured faster,
the closure elsewhere) on identical feeds, how its kernels resolved
(native / NumPy by contest / never reached a contest), and the observed
ULP drift against the two-class policy budget.

Timing uses best-of-``repeats`` (min), not mean: on a shared CI box the
minimum is the stable estimator of the achievable time, and the speedup
ratio of two minima is far less noisy than the ratio of means.  The
NumPy and native runs are interleaved round-robin so a transient stall
cannot systematically penalize one side.

Acceptance criteria for the native backend, asserted rather than merely
reported:

* on every tiny zoo model the selected module is not slower than NumPy
  (>= 0.9x: a kernel is C only where C measured faster), and it beats
  NumPy outright where C wins by a wide margin on the kernels that
  dominate: siamese and mobilenet (~4.5x) and squeezenet (~1.3-1.6x);
* the renderer accepts every zoo kernel (full renderer coverage; which
  of them then run C is the contest's business);
* observed drift stays within the two-class ULP policy budget;
* re-running the scoreboard against the same cache compiles nothing and
  contests nothing (warm cache really is warm);
* at Table I scale, where rendered C loses most heavy kernels to BLAS,
  the selected module is not slower than NumPy: a kernel is C only where
  C measured faster;
* the differential oracle stays green with ``backend="native"`` on the
  same models the scoreboard times.
"""

import time
from typing import Sequence

import pytest
from conftest import emit

from repro.bench import format_table
from repro.compiler.native import (
    NativeCache,
    NativeOptions,
    graph_ulp_budget,
    max_ulp_diff,
    native_available,
)
from repro.compiler.pipeline import Compiler
from repro.ir.interpreter import make_inputs
from repro.models import build_model
from repro.runtime.plan import single_device_plan
from repro.runtime.session import EngineSession
from repro.testing.oracle import run_differential

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
    for fn in fns:  # warm: ctypes setup / first touch of the arena
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
    zero-compile assertion below does exactly that).
    """
    native = native or NativeOptions(autotune=True)
    numpy_compiler = Compiler()
    native_compiler = Compiler(backend="native", native=native)

    rows: list[dict] = []
    for name in models:
        graph = build_model(name, tiny=tiny)
        feeds = make_inputs(graph, seed=seed)
        mod_nat = native_compiler.compile_cpu(graph)
        sess_np = EngineSession(
            single_device_plan(numpy_compiler.compile_cpu(graph), "cpu")
        )
        sess_nat = EngineSession(single_device_plan(mod_nat, "cpu"))

        out_np = sess_np.run(feeds).outputs
        out_nat = sess_nat.run(feeds).outputs
        drift = max(
            (max_ulp_diff(a, b) for a, b in zip(out_np, out_nat)), default=0.0
        )
        t_np, t_nat = _best_of_interleaved(
            [lambda: sess_np.run(feeds), lambda: sess_nat.run(feeds)], repeats
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
                "ulp_budget": float(graph_ulp_budget(mod_nat.graph)),
            }
        )
    return rows


pytestmark = pytest.mark.skipif(
    not native_available(), reason="native backend needs a C compiler"
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """Dedicated cache root so compile counters belong to this bench."""
    return NativeCache(root=tmp_path_factory.mktemp("native_bench_cache"))


def test_native_scoreboard(benchmark, cache):
    options = NativeOptions(cache=cache, autotune=True)
    rows = benchmark.pedantic(
        native_scoreboard,
        kwargs={"native": options, "repeats": 9},
        rounds=1,
        iterations=1,
    )
    emit(format_table(rows, title="Native backend vs NumPy (tiny zoo)"))

    by_model = {r["model"]: r for r in rows}
    # What the contest guarantees everywhere, and an outright win only
    # where C's margin is far above run-to-run noise: vgg sits at parity
    # now that NumPy's pooling is fast, and mtdnn's whole module runs in
    # ~0.3 ms, where one slow BLAS call decides the ratio.
    for model in ("siamese", "mobilenet", "squeezenet"):
        assert by_model[model]["speedup"] > 1.0, by_model[model]

    for row in rows:
        assert row["speedup"] >= 0.9, row
        assert row["rejected"] == 0, f"{row['model']}: renderer rejected kernels"
        assert row["max_ulp"] <= row["ulp_budget"], row

    cold = cache.stats.snapshot()
    assert cold["compiles"] > 0
    assert cold["fallbacks"] == 0, cold

    # Warm pass: identical signatures, so the cache must serve every
    # kernel from the memo/disk without a single new compile or re-tune.
    native_scoreboard(native=options, repeats=1)
    warm = cache.stats.snapshot()
    assert warm["compiles"] == cold["compiles"], (cold, warm)
    assert warm["autotunes"] == cold["autotunes"], (cold, warm)
    assert warm["contests"] == cold["contests"], (cold, warm)
    emit(format_table([warm], title="Cache stats after warm re-run"))


def test_selected_native_not_slower_at_paper_scale(benchmark, cache):
    """The "or not selected" guarantee, at the scale tier-1 cannot
    afford: pure rendered C is several times slower than NumPy on these
    models, the contested module must not be."""
    rows = benchmark.pedantic(
        native_scoreboard,
        kwargs={
            "models": ("wide_deep", "mtdnn"),
            "tiny": False,
            "native": NativeOptions(cache=cache),
            "repeats": 5,
        },
        rounds=1,
        iterations=1,
    )
    emit(format_table(rows, title="Native backend vs NumPy (Table I scale)"))
    for row in rows:
        assert row["rejected"] == 0, row
        assert row["numpy_won"] > 0, row
        assert row["speedup"] >= 0.9, row
        assert row["max_ulp"] <= row["ulp_budget"], row


@pytest.mark.parametrize("model", ["vgg", "mtdnn"])
def test_oracle_green_on_native_backend(machine, model):
    report = run_differential(
        build_model(model, tiny=True), machine=machine, backend="native"
    )
    assert report.ok, report.summary()
