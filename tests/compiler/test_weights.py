"""The engine's weight store: one array per weight, the right one per module.

Every module a compiler lowers reads its parameters from the compiler's
:class:`~repro.ir.weights.WeightStore`.  These tests pin what a store that
hands a module the wrong array would break: shared weights are shared,
each module sees exactly what its own graph generates, folded literals
keep their payloads, device-loss rebuilds generate nothing, and serving
never writes a stored array.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.compiler import Compiler, compile_graph
from repro.compiler.target import CPU_TARGET
from repro.compiler.native import native_available
from repro.core import DuetEngine
from repro.devices import default_machine
from repro.ir import GraphBuilder, make_inputs
from repro.ir.node import Initializer
from repro.ir.weights import WeightStore
from repro.models import MODEL_NAMES, build_model
from repro.runtime.faults import ScriptedChaosInjector
from repro.serving import ServingConfig
from repro.testing import mixed_serving_opt
from repro.testing.oracle import pinned_native_compiler

BACKENDS = ("numpy", "native")


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(f"u{a.itemsize}")


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def sessions():
    """backend -> (engine, [(model, session)]) over every tiny zoo model."""
    out = {}
    for backend in BACKENDS:
        engine = DuetEngine(machine=default_machine(noisy=False), backend=backend)
        out[backend] = (
            engine,
            [
                (name, engine.session(build_model(name, tiny=True)))
                for name in MODEL_NAMES
            ],
        )
    return out


def test_fresh_engine_starts_with_an_empty_store():
    engine = DuetEngine()
    assert len(engine.compiler.weights) == 0
    engine.optimize(build_model("siamese", tiny=True))
    assert len(engine.compiler.weights) == 0  # planning loads no weights


def test_siamese_towers_share_one_w_hh():
    engine = DuetEngine(machine=default_machine(noisy=False))
    # Tiny siamese falls back to one whole-model module; force the
    # two-tower plan.
    opt = mixed_serving_opt(engine, build_model("siamese", tiny=True))
    session = engine.session(opt)
    towers = [
        t.module.params["tower_l0_whh"]
        for t in session.plan.tasks
        if "tower_l0_whh" in t.module.params
    ]
    assert len(towers) == 2
    assert towers[0] is towers[1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_module_params_equal_their_graphs(sessions, backend):
    _, served = sessions[backend]
    for name, session in served:
        for task in session.plan.tasks:
            module = task.module
            want = module.graph.materialize_params(module.param_seed)
            assert module.params.keys() == want.keys(), name
            for cid, ref in want.items():
                got = module.params[cid]
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert np.array_equal(_bits(got), _bits(ref)), (name, cid)


def _folded(payload):
    """A graph whose ``k`` folds (under one id) to ``payload * 2``."""
    b = GraphBuilder("fold")
    x = b.input("x", (2,))
    c = b.literal(np.asarray(payload, dtype=np.float32), name="c")
    two = b.literal(np.asarray([2.0, 2.0], dtype=np.float32), name="two")
    k = b.op("multiply", c, two, name="k")
    return b.build(b.op("add", x, k, name="y"))


def test_folded_literals_under_one_id_keep_their_payloads():
    compiler = Compiler()
    one = compiler.compile_cpu(_folded([1.0, 2.0]))
    two = compiler.compile_cpu(_folded([5.0, 7.0]))
    assert one.graph.node("k").init is Initializer.LITERAL
    assert two.graph.node("k").init is Initializer.LITERAL
    assert one.weights is two.weights
    x = {"x": np.zeros(2, dtype=np.float32)}
    np.testing.assert_array_equal(one.run(x)[0], [2.0, 4.0])
    np.testing.assert_array_equal(two.run(x)[0], [10.0, 14.0])
    assert len(compiler.weights) == 0  # literals are never stored


def test_seed_is_part_of_the_key():
    graph = build_model("siamese", tiny=True)
    compiler = Compiler()
    first = compiler.compile_cpu(graph)
    second = compile_graph(
        graph, CPU_TARGET, param_seed=1, weights=compiler.weights
    ).module
    w0, w1 = first.params["tower_l0_whh"], second.params["tower_l0_whh"]
    assert not np.array_equal(w0, w1)
    assert np.array_equal(w1, graph.materialize_params(1)["tower_l0_whh"])


def test_rebuild_after_device_loss_adds_no_store_misses():
    engine = DuetEngine(machine=default_machine(noisy=False))
    graph = build_model("siamese", tiny=True)
    opt = mixed_serving_opt(engine, graph)
    feeds = make_inputs(graph, seed=0)
    injector = ScriptedChaosInjector()
    config = ServingConfig(pool_size=1, batching=False, shedding=False)
    with engine.serve(
        {"m": opt}, config=config, fault_injectors={"m": injector}
    ) as frontend:
        want = frontend.request(feeds, model="m", timeout_s=30.0).outputs
        loaded = len(engine.compiler.weights)
        assert loaded > 0
        injector.lose_device("gpu")
        got = frontend.request(feeds, model="m", timeout_s=30.0).outputs
        lane = frontend._lanes["m"]
        assert lane.slot_rebuilds.value(model="m", kind="degraded") == 1
        assert len(engine.compiler.weights) == loaded
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_serving_never_writes_a_stored_array(sessions):
    pinned = pinned_native_compiler()
    pinned_modules = [
        (name, pinned.compile_cpu(build_model(name, tiny=True)))
        for name in ("mtdnn", "resnet")
    ]
    stores = [engine.compiler.weights for engine, _ in sessions.values()]
    stores.append(pinned.weights)
    for _, module in pinned_modules:
        module.params  # load before the digests are taken
    before = [
        {key: _digest(a) for key, a in store.arrays().items()} for store in stores
    ]
    assert all(before)
    for _, served in sessions.values():
        for name, session in served:
            feeds = make_inputs(session.opt.graph, seed=1)
            for _ in range(2):
                session.run(feeds)
    for name, module in pinned_modules:
        if native_available():
            assert any(k.backend == "native" for k in module.kernels), name
        module.run(make_inputs(module.graph, seed=1))
    after = [
        {key: _digest(a) for key, a in store.arrays().items()} for store in stores
    ]
    assert after == before


def test_concurrent_loads_generate_each_weight_once():
    # Tiny wide_deep holds ~11M elements, so each load is a threaded batch.
    graph = build_model("wide_deep", tiny=True)
    store = WeightStore()
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: results.append(store.params(graph, 0)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(results) == 4
    first = results[0]
    for other in results[1:]:
        assert all(other[cid] is first[cid] for cid in first)
    generated = [n for n in graph.const_nodes() if n.init is not Initializer.LITERAL]
    assert len(store) == len(generated)
    want = graph.materialize_params(0)
    assert all(np.array_equal(_bits(first[cid]), _bits(want[cid])) for cid in want)
