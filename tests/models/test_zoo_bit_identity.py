"""Zoo-wide bit-identity: every model, every executor, exact outputs.

DUET's transparency claim (§IV-D) at model scale: the interpreter and the
threaded executor must produce *element-exact* outputs for every model in
the zoo — same shape, same dtype, ``==`` everywhere.  Both paths run the
same NumPy kernels in dependency order, so there is no tolerance to hide
behind.
"""

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.ir.interpreter import make_inputs, run_graph
from repro.models import MODEL_NAMES, build_model
from repro.runtime.threaded import ThreadedExecutor


def _assert_identical(name, got, ref):
    assert len(got) == len(ref), f"{name}: output count mismatch"
    for i, (a, b) in enumerate(zip(got, ref)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape, f"{name}: output {i} shape"
        assert a.dtype == b.dtype, f"{name}: output {i} dtype"
        assert np.array_equal(a, b), f"{name}: output {i} values differ"


@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_zoo_model_bit_identity(model_name, machine):
    graph = build_model(model_name, tiny=True)
    feeds = make_inputs(graph)
    ref = run_graph(graph, feeds)

    plan = DuetEngine(machine=machine).optimize(graph).plan

    threaded = ThreadedExecutor(plan).run(feeds)
    _assert_identical(f"{model_name}/threaded", threaded.outputs, ref)
