"""Tests for the per-device / per-link heterogeneous timeline renderer."""

import pytest

from repro.bench import format_hetero_timeline
from repro.core import DuetEngine
from repro.devices import make_mesh
from repro.models import build_model


class TestHeteroTimeline:
    def test_renders_all_lanes(self, machine):
        engine = DuetEngine(machine=machine)
        opt = engine.optimize(build_model("wide_deep", tiny=True))
        text = format_hetero_timeline(engine.run(opt), title="t")
        assert text.startswith("t\n")
        for lane in ("cpu", "gpu", "pcie"):
            assert f"{lane:4s}|".replace(" ", "") in text.replace(" ", "")

    def test_busy_times_reported(self, machine):
        engine = DuetEngine(machine=machine)
        opt = engine.optimize(build_model("wide_deep", tiny=True))
        result = engine.run(opt)
        text = format_hetero_timeline(result)
        assert "busy" in text
        assert f"total {result.latency * 1e3:.3f} ms" in text

    def test_fallback_plan_has_one_active_device(self, machine):
        engine = DuetEngine(machine=machine)
        opt = engine.optimize(build_model("resnet"))  # falls back to GPU
        text = format_hetero_timeline(engine.run(opt))
        cpu_line = next(l for l in text.splitlines() if l.startswith("cpu"))
        assert "█" not in cpu_line

    @pytest.mark.parametrize(
        "model, lanes",
        [
            # Regression: any mesh device used to raise KeyError('gpu0').
            ("wide_deep", ["cpu", "gpu0", "pcie"]),
            ("mtdnn", ["cpu", "gpu0", "gpu1", "cpu-gpu0", "cpu-gpu1"]),
        ],
    )
    def test_mesh_gets_a_lane_per_device_and_link(self, model, lanes):
        engine = DuetEngine(machine=make_mesh(2, noisy=False))
        result = engine.run(engine.optimize(build_model(model)))
        rows = format_hetero_timeline(result).splitlines()[1:]
        assert [row.split("|")[0].strip() for row in rows] == lanes
        assert all("█" in row for row in rows)
