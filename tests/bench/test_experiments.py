"""Tests for the experiment drivers: shapes of every figure/table."""

import importlib.util
import pathlib
import sys

import pytest

from repro.bench import (
    fig04_timeline,
    fig05_comm,
    fig11_end2end,
    fig12_tail,
    fig13_schedulers,
    fig14_rnn_layers,
    fig15_cnn_depth,
    fig16_ffn_depth,
    fig17_batch_size,
    table1_rows,
    table2_breakdown,
    table3_resnet,
)
from repro.devices import default_machine

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _load_bench(name):
    """Import a benchmark module from the benchmarks/ directory."""
    # Benchmarks import their sibling conftest for emit().
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location(
            name, BENCH_DIR / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(BENCH_DIR))


class TestFig04:
    def test_timeline_shape(self, machine):
        data = fig04_timeline(machine)
        assert set(data) == {"cpu", "gpu"}
        for segments in data.values():
            for prev, cur in zip(segments, segments[1:]):
                assert cur["start_ms"] >= prev["start_ms"]

    def test_rnn_dominates_gpu_cnn_dominates_cpu(self, machine):
        data = fig04_timeline(machine)

        def kind_total(segments, marker):
            return sum(
                s["duration_ms"] for s in segments if marker in s["kernel"]
            )

        assert kind_total(data["gpu"], "lstm") > kind_total(data["gpu"], "conv2d") * 0.5
        assert kind_total(data["cpu"], "conv2d") > kind_total(data["cpu"], "lstm")


class TestFig05:
    def test_latency_monotone(self, machine):
        rows = fig05_comm(machine)
        lat = [r["latency_ms"] for r in rows]
        assert lat == sorted(lat)

    def test_linear_regime_for_large_messages(self, machine):
        rows = fig05_comm(machine, sizes=[2**24, 2**25, 2**26])
        assert rows[1]["latency_ms"] / rows[0]["latency_ms"] == pytest.approx(
            2.0, rel=0.05
        )


class TestFig11:
    @pytest.fixture(scope="class")
    def rows(self, machine):
        return fig11_end2end(machine)

    def test_all_systems_present(self, rows):
        systems = {r["system"] for r in rows}
        assert "DUET" in systems and "TVM-GPU" in systems
        assert len(systems) == 7

    def test_duet_wins_every_model(self, rows):
        for model in {r["model"] for r in rows}:
            model_rows = [r for r in rows if r["model"] == model]
            best = min(model_rows, key=lambda r: r["latency_ms"])
            assert best["system"] == "DUET", model

    def test_speedups_in_paper_bands(self, rows):
        """1.5-2.3x vs TVM-GPU; 1.3-15.9x vs TVM-CPU (shape, loose)."""
        for r in rows:
            if r["system"] == "TVM-GPU":
                assert 1.2 <= r["speedup_vs_duet"] <= 3.5, r
            if r["system"] == "TVM-CPU":
                assert 1.2 <= r["speedup_vs_duet"] <= 16.0, r

    def test_framework_speedups_in_paper_bands(self, rows):
        """2.1-8.4x (GPU) and 2.3-18.8x (CPU) vs frameworks (loose)."""
        for r in rows:
            if r["system"] in ("PyTorch-GPU", "TensorFlow-GPU"):
                assert 1.8 <= r["speedup_vs_duet"] <= 9.0, r
            if r["system"] in ("PyTorch-CPU", "TensorFlow-CPU"):
                assert 2.0 <= r["speedup_vs_duet"] <= 19.0, r


class TestTable2:
    def test_wide_deep_placements_match_paper(self, machine):
        rows = table2_breakdown(machine, models=("wide_deep",))
        by_cost = {}
        for r in rows:
            if r["gpu_ms"] > r["cpu_ms"] * 1.5 and r["cpu_ms"] > 1.0:
                assert r["placement"] == "cpu", r  # the RNN-ish subgraph
            if r["cpu_ms"] > r["gpu_ms"] * 5 and r["gpu_ms"] > 0.5:
                assert r["placement"] == "gpu", r  # the CNN subgraph

    def test_every_subgraph_reported(self, machine):
        rows = table2_breakdown(machine, models=("siamese",))
        from repro.core import partition_graph
        from repro.models import build_model

        n = len(partition_graph(build_model("siamese")).subgraphs)
        assert len(rows) == n


class TestFig12:
    @pytest.fixture(scope="class")
    def rows(self, noisy_machine):
        return fig12_tail(noisy_machine, models=("wide_deep",), n_runs=800)

    def test_percentiles_ordered(self, rows):
        for r in rows:
            assert r["p50_ms"] <= r["p99_ms"] <= r["p999_ms"]

    def test_duet_beats_tvm_gpu_at_every_percentile(self, rows):
        duet = next(r for r in rows if r["system"] == "DUET")
        gpu = next(r for r in rows if r["system"] == "TVM-GPU")
        for key in ("p50_ms", "p99_ms", "p999_ms"):
            assert duet[key] < gpu[key]

    def test_tail_speedup_not_larger_than_median_speedup(self, rows):
        # Paper: P99.9 gains shrink because PCIe adds variance.
        duet = next(r for r in rows if r["system"] == "DUET")
        gpu = next(r for r in rows if r["system"] == "TVM-GPU")
        s50 = gpu["p50_ms"] / duet["p50_ms"]
        s999 = gpu["p999_ms"] / duet["p999_ms"]
        assert s999 <= s50 * 1.15


class TestFig13:
    @pytest.fixture(scope="class")
    def rows(self, machine):
        return fig13_schedulers(machine, n_random=8)

    def test_all_schemes_present(self, rows):
        assert [r["scheme"] for r in rows] == [
            "Random",
            "Round-Robin",
            "Random+Correction",
            "Greedy+Correction",
            "Ideal",
        ]

    def test_ordering_matches_paper(self, rows):
        lat = {r["scheme"]: r["latency_ms"] for r in rows}
        assert lat["Random"] > lat["Greedy+Correction"]
        assert lat["Round-Robin"] > lat["Greedy+Correction"] * 0.999
        assert lat["Random+Correction"] >= lat["Ideal"] * 0.999

    def test_greedy_correction_is_ideal(self, rows):
        lat = {r["scheme"]: r["latency_ms"] for r in rows}
        assert lat["Greedy+Correction"] == pytest.approx(lat["Ideal"], rel=1e-6)


class TestModelVariations:
    def test_fig14_gpu_grows_fastest(self, machine):
        rows = fig14_rnn_layers(machine, layers=(1, 4))
        gpu_growth = rows[-1]["tvm_gpu_ms"] / rows[0]["tvm_gpu_ms"]
        cpu_growth = rows[-1]["tvm_cpu_ms"] / rows[0]["tvm_cpu_ms"]
        duet_growth = rows[-1]["duet_ms"] / rows[0]["duet_ms"]
        assert gpu_growth > cpu_growth
        assert all(r["duet_ms"] <= r["tvm_gpu_ms"] for r in rows)

    def test_fig15_cpu_grows_fastest(self, machine):
        rows = fig15_cnn_depth(machine, depths=(18, 50))
        cpu_growth = rows[-1]["tvm_cpu_ms"] / rows[0]["tvm_cpu_ms"]
        gpu_growth = rows[-1]["tvm_gpu_ms"] / rows[0]["tvm_gpu_ms"]
        assert cpu_growth > gpu_growth

    def test_fig16_flat_in_ffn_depth(self, machine):
        rows = fig16_ffn_depth(machine, depths=(1, 8))
        # Paper: "execution time does not change much".
        assert rows[-1]["duet_ms"] < rows[0]["duet_ms"] * 1.3

    def test_fig17_speedup_shrinks_with_batch(self, machine):
        rows = fig17_batch_size(machine, batches=(2, 16))
        assert rows[-1]["speedup_vs_gpu"] < rows[0]["speedup_vs_gpu"]


class TestTables:
    def test_table1_models(self):
        rows = table1_rows()
        assert [r["model"] for r in rows] == ["Wide-and-Deep", "Siamese", "MT-DNN"]
        assert all(r["batch"] == 1 for r in rows)

    def test_table3_duet_matches_best_single_device(self, machine):
        rows = table3_resnet(machine, models=("resnet",))
        lat = {r["system"]: r["latency_ms"] for r in rows}
        assert lat["DUET"] == pytest.approx(lat["TVM-GPU"], rel=1e-6)
        duet_row = next(r for r in rows if r["system"] == "DUET")
        assert duet_row["fallback"] == "gpu"

    def test_table3_vgg_and_squeezenet_also_fall_back(self, machine):
        rows = table3_resnet(machine, models=("vgg", "squeezenet"))
        for model in ("vgg", "squeezenet"):
            duet_row = next(
                r for r in rows
                if r["model"] == model and r["system"] == "DUET"
            )
            assert duet_row["fallback"] == "gpu"


class TestBenchSmoke:
    def test_ext_throughput_bench_runs_at_trivial_scale(self):
        bench = _load_bench("bench_ext_throughput")
        rows = bench._run(default_machine(noisy=False))
        assert {r["system"] for r in rows} == {"TVM-CPU", "TVM-GPU", "DUET"}
