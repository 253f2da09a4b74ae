"""Tests for the differential multi-executor oracle."""

import numpy as np
import pytest

from repro.core.schedulers import round_robin_placement
from repro.devices import default_machine, make_mesh
from repro.models import build_model
from repro.testing.generators import case_rng, generate_graph
from repro.testing.oracle import run_differential


@pytest.fixture(scope="module")
def machine():
    return default_machine(noisy=False)


@pytest.fixture(scope="module")
def mesh3():
    return make_mesh(num_gpus=2, noisy=False)


class TestConformingGraphs:
    def test_fuzz_graph_all_paths_agree(self, machine):
        graph = generate_graph(case_rng(100, 0))
        report = run_differential(graph, machine=machine)
        assert report.ok, report.summary()
        # Scheduled arm + both single-device arms always present.
        assert {"single:cpu", "single:gpu", "simulator", "threaded",
                "resilient"} <= set(report.outcomes)
        assert "OK" in report.summary()

    def test_zoo_model_all_paths_agree(self, machine):
        graph = build_model("wide_deep", tiny=True)
        report = run_differential(graph, machine=machine)
        assert report.ok, report.summary()

    def test_alternating_arm_covers_cross_device(self, machine):
        graph = build_model("wide_deep", tiny=True)
        report = run_differential(graph, machine=machine)
        # The forced alternating placement spans both devices whenever the
        # partition has more than one subgraph.
        alt_names = [n for n in report.outcomes if n.endswith("@alt")]
        assert alt_names, "expected a forced cross-device arm"

    def test_outputs_recorded_exactly(self, machine):
        from repro.ir.interpreter import make_inputs, run_graph

        graph = generate_graph(case_rng(100, 1))
        report = run_differential(graph, machine=machine)
        ref = run_graph(graph, make_inputs(graph, seed=0), seed=0)
        got = report.outcomes["threaded"].outputs
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestMeshArm:
    """The oracle generalizes past the paper pair: every arm (scheduled,
    per-device singles, threaded, resilient, forced alternating) must
    agree on an N-device mesh too."""

    def test_fuzz_graph_all_paths_agree_on_3dev_mesh(self, mesh3):
        graph = generate_graph(case_rng(100, 5))
        report = run_differential(graph, machine=mesh3)
        assert report.ok, report.summary()
        # One single-device arm per mesh device.
        assert {"single:cpu", "single:gpu0", "single:gpu1", "simulator",
                "threaded", "resilient"} <= set(report.outcomes)

    def test_zoo_model_all_paths_agree_on_3dev_mesh(self, mesh3):
        graph = build_model("mtdnn", tiny=True)
        report = run_differential(graph, machine=mesh3)
        assert report.ok, report.summary()

    def test_alternating_arm_spans_mesh(self, mesh3):
        from repro.core import partition_graph

        graph = build_model("mtdnn", tiny=True)
        partition = partition_graph(graph)
        alt = round_robin_placement(partition, mesh3.device_names)
        assert set(alt) == {sg.id for sg in partition.subgraphs}
        if len(alt) >= 3:
            assert set(alt.values()) == {"cpu", "gpu0", "gpu1"}

    def test_heterogeneous_mesh_agrees(self):
        mesh = make_mesh(num_gpus=2, noisy=False, gpu_slowdowns=(1.0, 1.6))
        graph = generate_graph(case_rng(100, 6))
        report = run_differential(graph, machine=mesh)
        assert report.ok, report.summary()

    def test_invalid_device_caught_on_mesh(self, mesh3):
        graph = generate_graph(case_rng(100, 7))

        def wrong_device(placement, partition):
            broken = dict(placement)
            broken[sorted(broken)[0]] = "gpu7"
            return broken

        report = run_differential(
            graph, machine=mesh3, placement_transform=wrong_device
        )
        assert not report.ok
        assert any("invalid device" in v for v in report.violations)


class TestMutationDetection:
    def test_dropped_subgraph_caught(self, machine):
        graph = generate_graph(case_rng(100, 2))

        def drop_one(placement, partition):
            broken = dict(placement)
            broken.pop(sorted(broken)[0])
            return broken

        report = run_differential(
            graph, machine=machine, placement_transform=drop_one
        )
        assert not report.ok
        assert any("never placed" in v for v in report.violations)

    def test_invalid_device_caught(self, machine):
        graph = generate_graph(case_rng(100, 3))

        def wrong_device(placement, partition):
            broken = dict(placement)
            broken[sorted(broken)[0]] = "fpga"
            return broken

        report = run_differential(
            graph, machine=machine, placement_transform=wrong_device
        )
        assert not report.ok
        assert any("invalid device" in v for v in report.violations)

    def test_identity_transform_stays_clean(self, machine):
        graph = generate_graph(case_rng(100, 4))
        report = run_differential(
            graph, machine=machine, placement_transform=lambda p, part: p
        )
        assert report.ok, report.summary()


class TestAlternatingPlacement:
    def test_round_robin_over_subgraphs(self, machine):
        from repro.core import partition_graph

        graph = build_model("wide_deep", tiny=True)
        partition = partition_graph(graph)
        alt = round_robin_placement(partition)
        assert set(alt) == {sg.id for sg in partition.subgraphs}
        if len(alt) > 1:
            assert set(alt.values()) == {"cpu", "gpu"}
