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
def tiny_plan():
    from repro.core import DuetEngine
    from repro.devices import default_machine
    from repro.ir import make_inputs, run_graph
    from repro.models import build_model

    graph = build_model("wide_deep", tiny=True)
    plan = DuetEngine(machine=default_machine(noisy=False)).optimize(graph).plan
    feeds = make_inputs(graph)
    return plan, feeds, run_graph(graph, feeds)


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
