"""Tests for the ablation drivers and their synthetic workloads."""

import numpy as np
import pytest

from repro.bench import (
    ablation_correction,
    ablation_granularity,
    ablation_profiling,
    build_comm_heavy_model,
    build_fusion_sensitive_model,
)
from repro.compiler import CPU_TARGET, compile_graph
from repro.core import partition_graph
from repro.ir import make_inputs, run_graph


class TestSyntheticModels:
    def test_fusion_sensitive_builds_and_runs(self):
        g = build_fusion_sensitive_model()
        g.validate()
        # Numerically cheap enough to execute directly.
        outs = run_graph(g, make_inputs(g))
        assert outs[0].shape == (1, 1)

    def test_fusion_sensitive_preference_flip(self, machine):
        """The elementwise tower must prefer GPU fused, CPU unfused."""
        g = build_fusion_sensitive_model()
        part = partition_graph(g)
        tower = next(
            sg for sg in part.subgraphs
            if all(g.node(n).op not in ("conv2d", "lstm") for n in sg.node_ids)
            and len(sg.node_ids) > 10
        )
        fused = compile_graph(tower.graph, CPU_TARGET, fuse=True).module
        unfused = compile_graph(tower.graph, CPU_TARGET, fuse=False).module

        def t(module, dev):
            return sum(dev.kernel_time(k.cost) for k in module.kernels)

        assert t(fused, machine.device("gpu")) < t(fused, machine.device("cpu"))
        assert t(unfused, machine.device("cpu")) < t(unfused, machine.device("gpu"))

    def test_comm_heavy_builds_and_runs(self):
        g = build_comm_heavy_model()
        g.validate()
        feeds = make_inputs(g)
        outs = run_graph(g, feeds)
        assert len(outs) == 2
        # The reorder branch output: reversed/transposed/scaled input.
        assert outs[0].shape == (1, 4 * 1024 * 1024)

    def test_comm_heavy_two_branch_multipath(self):
        part = partition_graph(build_comm_heavy_model())
        assert len(part.multi_path_phases()[0].subgraphs) == 2


class TestAblationDrivers:
    def test_profiling_aware_never_worse(self, machine):
        rows = ablation_profiling(machine, models=("fusion_sensitive",))
        (row,) = rows
        assert row["aware_ms"] <= row["naive_ms"]
        assert row["decisions_differ"]
        assert row["penalty"] > 1.0

    def test_granularity_coarse_wins(self, machine):
        rows = ablation_granularity(machine, models=("wide_deep",))
        (row,) = rows
        assert row["per_op_ms"] > row["coarse_ms"]
        assert row["per_op_subgraphs"] > row["coarse_subgraphs"]
        assert row["per_op_transfers"] >= row["coarse_transfers"]

    def test_correction_fixes_comm_heavy(self, machine):
        rows = ablation_correction(machine, models=("comm_heavy",))
        (row,) = rows
        assert row["swaps"] >= 1
        assert row["gain"] > 1.5
        assert row["corrected_ms"] <= float(row["ideal_ms"]) * 1.001

    def test_correction_noop_when_greedy_optimal(self, machine):
        rows = ablation_correction(machine, models=("wide_deep",))
        (row,) = rows
        assert row["gain"] == pytest.approx(1.0)
