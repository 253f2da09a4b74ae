"""Native C backend vs NumPy closures over the model zoo.

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

import pytest
from conftest import emit

from repro.bench import format_table, native_scoreboard
from repro.compiler.native import (
    NativeCache,
    NativeOptions,
    native_available,
)
from repro.devices import default_machine
from repro.models import build_model
from repro.testing.oracle import run_differential

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
