"""Tests for the end-to-end DuetEngine."""

import json
import warnings

import numpy as np
import pytest

import repro.core.profile_store as profile_store
from repro.core import DuetEngine
from repro.errors import ProfilingError
from repro.ir import make_inputs, run_graph
from repro.models import build_model


class TestOptimize:
    def test_wide_deep_co_executes(self, engine):
        opt = engine.optimize(build_model("wide_deep"))
        assert not opt.used_fallback
        assert set(opt.placement.values()) == {"cpu", "gpu"}
        assert opt.latency < min(opt.single_device_latency.values())

    def test_resnet_falls_back_to_gpu(self, engine):
        opt = engine.optimize(build_model("resnet"))
        assert opt.used_fallback
        assert opt.fallback_device == "gpu"
        assert opt.latency == pytest.approx(opt.single_device_latency["gpu"])

    def test_optimize_builds_degradation_plans(self, engine):
        opt = engine.optimize(build_model("siamese", tiny=True))
        assert set(opt.degradation_plans) == {"cpu", "gpu"}
        for dev, plan in opt.degradation_plans.items():
            assert plan.devices_used() == {dev}
            assert len(plan.tasks) == 1

    def test_fallback_plan_is_single_device(self, engine):
        opt = engine.optimize(build_model("resnet"))
        assert len(opt.plan.tasks) == 1
        assert opt.plan.tasks[0].device == "gpu"

    def test_headline_speedups_in_paper_bands(self, engine):
        """Abstract: 1.5-2.3x vs TVM-GPU, 1.3-6.4x vs TVM-CPU (shapes)."""
        for name in ("wide_deep", "siamese", "mtdnn"):
            opt = engine.optimize(build_model(name))
            vs_gpu = opt.single_device_latency["gpu"] / opt.latency
            vs_cpu = opt.single_device_latency["cpu"] / opt.latency
            assert 1.2 <= vs_gpu <= 3.5, (name, vs_gpu)
            assert 1.2 <= vs_cpu <= 16.0, (name, vs_cpu)


class TestRun:
    @pytest.mark.parametrize("name", ["wide_deep", "siamese", "mtdnn"])
    def test_numeric_outputs_match_reference(self, engine, name):
        graph = build_model(name, tiny=True)
        opt = engine.optimize(graph)
        feeds = make_inputs(graph)
        result = engine.run(opt, inputs=feeds)
        ref = run_graph(graph, feeds)
        assert len(result.outputs) == len(ref)
        for got, want in zip(result.outputs, ref):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_run_without_inputs_times_only(self, engine):
        opt = engine.optimize(build_model("siamese", tiny=True))
        result = engine.run(opt)
        assert result.outputs is None
        assert result.latency > 0

    def test_latency_stats(self, engine):
        opt = engine.optimize(build_model("siamese", tiny=True))
        stats = engine.latency_stats(opt, n_runs=200, warmup=10)
        assert stats.n_samples == 200
        assert stats.p50 <= stats.p99 <= stats.p999

    def test_noisy_engine_tail_exceeds_median(self, noisy_machine):
        engine = DuetEngine(machine=noisy_machine)
        opt = engine.optimize(build_model("siamese", tiny=True))
        stats = engine.latency_stats(opt, n_runs=1000, warmup=10)
        assert stats.p999 > stats.p50


class TestProfileArtifactReload:
    def test_artifact_written_and_reused(self, machine, tmp_path):
        path = tmp_path / "profiles.json"
        graph = build_model("wide_deep", tiny=True)
        engine = DuetEngine(machine=machine)
        first = engine.optimize(graph, profile_path=str(path))
        assert path.exists()
        second = engine.optimize(graph, profile_path=str(path))
        assert second.placement == first.placement
        assert second.latency == pytest.approx(first.latency)

    def test_corrupt_artifact_triggers_reprofile(self, machine, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text("{not json at all")
        engine = DuetEngine(machine=machine)
        opt = engine.optimize(
            build_model("siamese", tiny=True), profile_path=str(path)
        )
        assert opt.latency > 0
        # The bad artifact was replaced by a valid one.
        assert "profiles" in json.loads(path.read_text())

    def test_profiling_error_triggers_reprofile(self, machine, tmp_path, monkeypatch):
        path = tmp_path / "profiles.json"
        graph = build_model("siamese", tiny=True)
        engine = DuetEngine(machine=machine)
        engine.optimize(graph, profile_path=str(path))

        def stale(*args, **kwargs):
            raise ProfilingError("stale artifact")

        monkeypatch.setattr(profile_store, "load_profiles", stale)
        opt = engine.optimize(graph, profile_path=str(path))
        assert opt.latency > 0

    def test_unexpected_load_error_propagates(self, machine, tmp_path, monkeypatch):
        """Only ProfilingError means "re-profile"; real bugs must surface."""
        path = tmp_path / "profiles.json"
        graph = build_model("siamese", tiny=True)
        engine = DuetEngine(machine=machine)
        engine.optimize(graph, profile_path=str(path))

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(profile_store, "load_profiles", boom)
        with pytest.raises(RuntimeError, match="disk on fire"):
            engine.optimize(graph, profile_path=str(path))


class TestFallbackMargin:
    def test_margin_forces_fallback(self, machine):
        # With an absurd margin DUET can never win -> always fall back.
        engine = DuetEngine(machine=machine, fallback_margin=0.99)
        opt = engine.optimize(build_model("wide_deep", tiny=True))
        assert opt.used_fallback


class TestRobustProfileSaving:
    """An unwritable artifact path must not sink the optimization."""

    def test_unwritable_path_warns_and_continues(self, machine, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        bad_path = blocker / "profiles.json"  # OSError on write
        graph = build_model("wide_deep", tiny=True)
        engine = DuetEngine(machine=machine)
        with pytest.warns(RuntimeWarning, match="could not write"):
            opt = engine.optimize(graph, profile_path=str(bad_path))
        # The freshly profiled results are intact and usable.
        assert opt.profiles
        assert opt.latency > 0

    def test_read_only_directory_warns_and_continues(
        self, machine, tmp_path, monkeypatch
    ):
        # Simulate a read-only directory / full disk regardless of the
        # privileges the test runs under (root ignores mode bits).
        import repro.core.profile_store as store

        def denied(partition, profiles, path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(store, "save_profiles", denied)
        graph = build_model("wide_deep", tiny=True)
        engine = DuetEngine(machine=machine)
        with pytest.warns(RuntimeWarning, match="could not write"):
            opt = engine.optimize(
                graph, profile_path=str(tmp_path / "ro" / "profiles.json")
            )
        assert opt.profiles

    def test_profiling_error_on_load_still_reprofiles(self, machine, tmp_path):
        # Sanity: artifact problems keep triggering re-profiling (not the
        # new OSError path).
        path = tmp_path / "profiles.json"
        path.write_text("{broken")
        graph = build_model("wide_deep", tiny=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning expected here
            opt = DuetEngine(machine=machine).optimize(
                graph, profile_path=str(path)
            )
        assert opt.profiles
        # The artifact was rewritten with good contents.
        from repro.core import load_profiles, partition_graph

        reloaded = load_profiles(partition_graph(graph), path)
        assert set(reloaded) == set(opt.profiles)
