"""The wall-clock benchmark's import surface stays importable.

``benchmarks/perf/harness`` imports ``repro`` from outside the package
and its own self-tests never load every harness module, so a rename or
deletion in ``src/`` would otherwise surface only when the benchmark
runs.  These checks read the harness sources instead of importing them.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "harness"


def _repro_imports():
    """``(file, module, name)`` for every ``from repro... import name``."""
    found = []
    for path in sorted(HARNESS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "repro" or module.startswith("repro."):
                    for alias in node.names:
                        found.append((path.name, module, alias.name))
    return found


def test_harness_found():
    assert _repro_imports(), f"no repro imports found under {HARNESS}"


@pytest.mark.parametrize(
    "source,module,name", _repro_imports(), ids=lambda v: str(v)
)
def test_harness_import_resolves(source, module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), f"{source}: {module}.{name} does not exist"


@pytest.fixture(scope="module")
def tiny_opt():
    from repro.core import DuetEngine
    from repro.devices import default_machine
    from repro.ir import make_inputs, run_graph
    from repro.models import build_model

    graph = build_model("wide_deep", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    feeds = make_inputs(graph)
    return engine, engine.optimize(graph), feeds, run_graph(graph, feeds)


@pytest.fixture(scope="module")
def tiny_plan(tiny_opt):
    _, opt, feeds, ref = tiny_opt
    return opt.plan, feeds, ref


def test_threaded_executor_outputs(tiny_plan):
    from repro.runtime import ThreadedExecutor

    plan, feeds, ref = tiny_plan
    for got, want in zip(ThreadedExecutor(plan).run(feeds).outputs, ref):
        np.testing.assert_array_equal(got, np.asarray(want))


def test_engine_session_outputs(tiny_plan):
    from repro.runtime import EngineSession

    plan, feeds, ref = tiny_plan
    for got, want in zip(EngineSession(plan).run(feeds).outputs, ref):
        np.testing.assert_array_equal(got, np.asarray(want))


def test_session_trace_brackets_each_plan_task(tiny_opt):
    """``_probe_runtime`` pairs each ``task-finish`` with the ``task-start``
    before it (a finish without a start is a ``KeyError`` there): one
    start then one finish per plan task, in plan order."""
    engine, opt, feeds, _ = tiny_opt
    events = []
    session = engine.session(opt, trace_sink=events.append)
    for _ in range(2):  # the harness measures the second run
        events.clear()
        session.run(feeds)
        expected = []
        for task in opt.plan.tasks:
            expected += [("task-start", task.task_id), ("task-finish", task.task_id)]
        assert [(e.kind, e.task_id) for e in events] == expected
