"""``BENCHMARK.json`` and ``run.py`` agree, and ``compare.py`` judges by
the bounds in it."""

import json
import subprocess
import sys

import pytest
from conftest import PERF, ROOT

import compare
from harness.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, pack
from harness.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_what_run_py_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert SPEC["run_seconds"] == RUN_SECONDS
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]


def test_benchmark_json_keeps_to_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_pack_refuses_a_missing_or_extra_metric():
    values = dict.fromkeys(END_TO_END, 1.0)
    assert pack(values, END_TO_END)["setup_s"] == {"value": 1.0, "unit": "s"}
    with pytest.raises(KeyError):
        pack({**values, "bogus": 1.0}, END_TO_END)
    values.pop("setup_s")
    with pytest.raises(KeyError):
        pack(values, END_TO_END)


def test_verdicts():
    steady_a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady_a, [104.0] * 5, "lower", 0.10) == "ok"
    assert compare.verdict(steady_a, [115.0] * 5, "lower", 0.10) == "regressed"
    assert compare.verdict(steady_a, [85.0] * 5, "higher", 0.10) == "regressed"
    assert compare.verdict(steady_a, [115.0] * 5, "higher", 0.10) == "ok"
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, [100.0] * 5, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [70.0] * 5, "lower", 0.10) == "ok"  # every run beats every run
    assert compare.verdict([100.0], [111.0], "lower", 0.10) == "regressed"


def _result(latency, failed=0):
    entry = {
        "end_to_end": {m: {"unit": u, "values": [1.0]} for m, u in END_TO_END.items()},
        "attempted": 1000,
        "failed": failed,
    }
    entry["end_to_end"]["latency_p50_ms"]["values"] = [latency]
    return {"workloads": {"tiny_closed": entry}}


def test_compare_fails_on_a_regression_or_more_failures():
    bounds = compare.load_bounds()
    bound = bounds["latency_p50_ms"][1]
    rows, passed = compare.compare(_result(10.0), _result(10.0 * (1 + bound / 2)), bounds)
    assert passed and len(rows) == len(END_TO_END) + 1
    _, passed = compare.compare(_result(10.0), _result(10.0 * (1 + bound * 1.2)), bounds)
    assert not passed
    _, passed = compare.compare(_result(10.0), _result(10.0, failed=1), bounds)
    assert not passed


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_one_untraced_run_prints_every_end_to_end_metric():
    line = _run("--workload", "batch_open", "--seed", "5", "--trace", "0", "--quick")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_one_traced_run_prints_every_layer_metric_and_a_consistent_trace():
    line = _run("--workload", "batch_open", "--seed", "5", "--trace", "1", "--quick")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == PER_LAYER
    trace = json.loads((PERF / "out" / "batch_open.trace.json").read_text())
    spans = {s["id"]: s for s in trace["spans"]}
    names = {s["name"] for s in spans.values()}
    assert {
        "setup", "models.build", "core.partition", "core.profile", "core.schedule",
        "compiler.compile", "runtime.session_build", "serving.frontend_build",
        "request", "serving.submit", "serving.wait", "runtime.session_run",
        "runtime.task",
    } <= names
    requests = [s for s in spans.values() if s["name"] == "request"]
    assert requests
    for request in requests:
        children = [s for s in spans.values() if s["parent"] == request["id"]]
        assert {c["name"] for c in children} == {"serving.submit", "serving.wait"}
        assert all(c["request"] == request["request"] for c in children)
        child_time = sum(c["end"] - c["start"] for c in children)
        duration = request["end"] - request["start"]
        assert request["self_s"] + child_time == pytest.approx(duration, abs=1e-9)
