"""Oracle native arms: skip markers, ULP policy, and backend plumbing.

The differential oracle has three native arms: ``native`` (direct module
run on ctypes kernels), ``native:threaded`` (the same kernels dispatched
by the threaded executor), both with the tile pinned so every accepted
group runs rendered C, and ``native:selected`` (the contested module an
engine would build).  These tests pin the arm contract:

* all arms run and agree when a C compiler is present;
* the pinned arms run rendered C for every group the renderer accepts,
  whatever a contest would have picked;
* without a compiler they *skip visibly* (``skipped`` outcome flag and a
  ``[SKIPPED: ...]`` marker in the summary) instead of silently passing;
* exact-class kernels are compared bit-identically, inexact-class
  kernels under the documented per-op ULP budgets;
* ``backend="native"`` switches every compiled arm onto native kernels.
"""

import numpy as np
import pytest

from repro.compiler.native import native_available
from repro.compiler.native.policy import (
    EXACT_OPS,
    ULP_BUDGETS,
    graph_ulp_budget,
    max_ulp_diff,
    ulp_close,
)
from repro.compiler.native.runtime import ENV_DISABLE, find_compiler
from repro.devices import default_machine
from repro.ir import GraphBuilder
from repro.models import build_model
from repro.testing.oracle import EXECUTOR_NAMES, run_differential


@pytest.fixture(scope="module")
def machine():
    return default_machine(noisy=False)


class TestNativeArms:
    def test_native_arms_registered(self):
        assert "native" in EXECUTOR_NAMES
        assert "native:threaded" in EXECUTOR_NAMES
        assert "native:selected" in EXECUTOR_NAMES

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_zoo_model_native_arms_agree(self, machine):
        report = run_differential(build_model("mtdnn", tiny=True), machine=machine)
        assert report.ok, report.summary()
        native = report.outcomes["native"]
        assert native.error is None and not native.skipped
        assert native.outputs is not None
        threaded = report.outcomes["native:threaded"]
        assert threaded.error is None and not threaded.skipped
        selected = report.outcomes["native:selected"]
        assert selected.error is None and not selected.skipped
        # The pinned arms keep every renderer under test where it would
        # lose its contest; the selected arm is free to mix.
        accepted = [
            k
            for k in native.module.kernels
            if k.reason != "numpy: renderer rejected"
        ]
        assert accepted and all(k.backend == "native" for k in accepted)
        assert {k.reason for k in selected.module.kernels} <= {
            "native", "numpy: lost contest", "numpy: renderer rejected"
        }

    def test_arms_skip_visibly_without_compiler(self, machine, monkeypatch):
        monkeypatch.setenv(ENV_DISABLE, "1")
        find_compiler.cache_clear()
        try:
            report = run_differential(
                build_model("wide_deep", tiny=True), machine=machine
            )
            assert report.ok, report.summary()
            assert set(report.skipped_arms) == {
                "native", "native:threaded", "native:selected"
            }
            assert "[SKIPPED: native, native:threaded" in report.summary()
        finally:
            monkeypatch.delenv(ENV_DISABLE)
            find_compiler.cache_clear()

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_backend_native_runs_all_compiled_arms_on_native(self, machine):
        report = run_differential(
            build_model("mobilenet", tiny=True), machine=machine, backend="native"
        )
        assert report.ok, report.summary()


class TestUlpPolicy:
    def test_exact_and_budgeted_classes_are_disjoint(self):
        assert not EXACT_OPS & set(ULP_BUDGETS)

    def test_core_arith_is_exact_class(self):
        for op in ("add", "subtract", "multiply", "divide", "relu", "concat"):
            assert op in EXACT_OPS, op

    def test_reassociating_ops_have_budgets(self):
        for op in ("dense", "matmul", "conv2d", "reduce_sum", "softmax", "lstm"):
            assert ULP_BUDGETS.get(op, 0) > 0, op

    def test_max_ulp_diff_zero_for_identical(self):
        x = np.linspace(-3, 3, 64, dtype=np.float32)
        assert max_ulp_diff(x, x.copy()) == 0.0

    def test_max_ulp_diff_counts_neighbor_floats(self):
        x = np.float32(1.0)
        assert max_ulp_diff(np.array([x]), np.array([np.nextafter(x, 2)])) == 1.0
        assert ulp_close(np.array([x]), np.array([np.nextafter(x, 2)]), budget=1)

    def test_nan_positions_must_match(self):
        a = np.array([np.nan, 1.0], dtype=np.float32)
        b = np.array([np.nan, 1.0], dtype=np.float32)
        assert max_ulp_diff(a, b) == 0.0
        c = np.array([1.0, np.nan], dtype=np.float32)
        assert max_ulp_diff(a, c) == np.inf

    def test_graph_budget_sums_per_op_and_scales_recurrent(self):
        b = GraphBuilder("budget")
        x = b.input("x", (2, 6, 8))
        w_ih = b.const((32, 8), name="w_ih")
        w_hh = b.const((32, 8), name="w_hh")
        bias = b.const((32,), name="bias")
        h = b.op("lstm", x, w_ih, w_hh, bias, hidden_size=8)
        g = b.build(h)
        # A recurrent op's budget scales with sequence length (6 steps).
        assert graph_ulp_budget(g) == 6 * ULP_BUDGETS["lstm"]

    def test_exact_graph_has_zero_budget(self):
        b = GraphBuilder("exact")
        x = b.input("x", (4, 4))
        g = b.build(b.op("relu", b.op("add", x, x)))
        assert graph_ulp_budget(g) == 0
