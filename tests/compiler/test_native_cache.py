"""Property tests for the signature-keyed native kernel cache, the
per-kernel contest and the concurrent compile batch.

The invariants the rest of the stack leans on:

1. *Warm means warm* — the same kernel signature is never compiled
   twice, whether the hit comes from the in-process memo or the on-disk
   ``.so`` store of a previous process.
2. *Signatures track numerics* — anything that can change the compiled
   code (shape, dtype, op attrs, renderer version, GEMM tile) changes
   the signature; anything that can't (graph/node names, target name)
   doesn't.
3. *Corruption heals* — a truncated or garbage ``.so`` is evicted and
   rebuilt on the next load instead of crashing the engine.
4. *One signature, one backend* — a kernel runs rendered C only where a
   timed contest against its NumPy closure said so; the decision is
   persisted, so every later engine, session and process over the same
   cache directory resolves it the same way without timing anything.
5. *A module's cold compiles are one batch* — concurrent, installed
   before the first contest starts, and a compiler that fails or hangs
   costs its own kernel only.

Tests that need an actual ``cc`` are gated on :func:`native_available`;
signature tests are pure Python and always run.
"""

import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

import repro.compiler.native as native_mod
from repro.compiler.fusion import plan_fusion
from repro.compiler.lowering import build_kernel, lower
from repro.compiler.native import (
    GEMM_TILES,
    CacheStats,
    NativeCache,
    NativeOptions,
    build_native_kernels,
    graph_ulp_budget,
    kernel_signature,
    native_available,
    ulp_close,
)
from repro.compiler.native import cache as cache_mod
from repro.compiler.native import runtime as runtime_mod
from repro.compiler.native.autotune import _TUNE_ROUNDS
from repro.compiler.native.cache import variant_signature
from repro.compiler.native.renderer import DEFAULT_TILE
from repro.compiler.native.runtime import ENV_CC, ENV_DISABLE, find_compiler
from repro.compiler.pass_manager import PassManager, default_passes
from repro.compiler.pipeline import Compiler
from repro.compiler.target import Target
from repro.core import DuetEngine
from repro.ir.builder import GraphBuilder
from repro.ir.dtype import FLOAT32, FLOAT64
from repro.ir.interpreter import make_inputs, run_graph
from repro.models import build_model

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no C compiler on PATH"
)


def _elementwise_graph(name="cachetest", shape=(4, 8), dtype=FLOAT32):
    b = GraphBuilder(name)
    x = b.input("x", shape, dtype=dtype)
    y = b.input("y", shape, dtype=dtype)
    z = b.op("relu", b.op("add", x, y))
    return b.build(z)


def _dense_graph(name="densetest"):
    b = GraphBuilder(name)
    x = b.input("x", (8, 16))
    w = b.const((4, 16), name="w")
    bias = b.const((4,), name="bias")
    z = b.op("bias_add", b.op("dense", x, w), bias)
    return b.build(z)


def _first_group(graph):
    """(optimized_graph, group, external) for the first fusion group,
    computing externals exactly as lowering does."""
    opt = PassManager(default_passes(2)).run(graph)
    group = plan_fusion(opt)[0]
    members = set(group.node_ids)
    external, seen = [], set()
    for nid in group.node_ids:
        for src in opt.node(nid).inputs:
            if src not in members and src not in seen:
                seen.add(src)
                external.append(src)
    return opt, group, external


NATIVE_CPU = Target("cpu", backend="native")


def _build(graph, cache, tile=DEFAULT_TILE, **opt_kwargs):
    """The first group's native kernel (None when it stayed on NumPy).
    The tile is pinned unless a test passes ``tile=None`` to let the
    contest decide: the cache properties are about rendered C, whoever
    would win."""
    opt, group, _ = _first_group(graph)
    options = NativeOptions(cache=cache, tile=tile, **opt_kwargs)
    kernel = build_kernel(opt, group, NATIVE_CPU, native=options)
    return kernel.fn if kernel.backend == "native" else None


class ScriptedClock:
    """A timer for the contest: sample *i* (one start/stop pair of
    calls) appears to take ``durations[i % len(durations)]`` seconds, so
    with one entry per candidate, in the contest's visiting order (C
    variants, then NumPy), every sample of a candidate takes its entry."""

    def __init__(self, durations):
        self.durations = durations
        self.calls = 0
        self.now = 0.0

    def __call__(self):
        if self.calls % 2:
            self.now += self.durations[(self.calls // 2) % len(self.durations)]
        self.calls += 1
        return self.now

    @property
    def samples(self):
        return self.calls // 2


def _contest(graph, cache, durations, **opt_kwargs):
    """Resolve the first group under a scripted clock; returns the
    ``(kernel | None, reason)`` pick and the clock."""
    opt, group, external = _first_group(graph)
    numpy_kernel = build_kernel(opt, group, Target("cpu"))
    clock = ScriptedClock(durations)
    (pick,) = build_native_kernels(
        opt,
        [(group, external, numpy_kernel)],
        NativeOptions(cache=cache, **opt_kwargs),
        clock=clock,
    )
    return pick, clock


# ---------------------------------------------------------------------------
# Signature properties (pure Python, no compiler required)
# ---------------------------------------------------------------------------


def test_signature_ignores_graph_and_node_names():
    sig_a = kernel_signature(*_first_group(_elementwise_graph("alpha")))
    sig_b = kernel_signature(*_first_group(_elementwise_graph("beta")))
    assert sig_a == sig_b


def test_signature_changes_on_shape():
    base = kernel_signature(*_first_group(_elementwise_graph(shape=(4, 8))))
    other = kernel_signature(*_first_group(_elementwise_graph(shape=(4, 9))))
    assert base != other


def test_signature_changes_on_dtype():
    f32 = kernel_signature(*_first_group(_elementwise_graph()))
    f64 = kernel_signature(
        *_first_group(_elementwise_graph(dtype=FLOAT64))
    )
    assert f32 != f64


def test_signature_changes_on_renderer_version_bump():
    opt, group, external = _first_group(_elementwise_graph())
    v1 = kernel_signature(opt, group, external, renderer_version=1)
    v2 = kernel_signature(opt, group, external, renderer_version=2)
    assert v1 != v2


def test_signature_changes_with_toolchain_fingerprint(monkeypatch):
    group = _first_group(_elementwise_graph())
    here = kernel_signature(*group)
    monkeypatch.setattr(
        cache_mod, "toolchain_fingerprint", lambda: "cc=/elsewhere/cc|other cpu"
    )
    assert kernel_signature(*group) != here


def test_toolchain_fingerprint_names_what_entries_depend_on():
    fp = runtime_mod.toolchain_fingerprint()
    assert fp == runtime_mod.toolchain_fingerprint()
    for part in (
        f"cc={find_compiler()}",
        " ".join(runtime_mod.CC_FLAGS),
        f"cpus={os.cpu_count()}",
        f"numpy={np.__version__}",
        "OPENBLAS_NUM_THREADS=",
    ):
        assert part in fp, (part, fp)


def test_variant_signatures_distinct_per_tile():
    base = kernel_signature(*_first_group(_dense_graph()))
    assert variant_signature(base, (4, 4)) != variant_signature(base, (8, 2))
    assert variant_signature(base, (4, 4)).startswith(base)


# ---------------------------------------------------------------------------
# Cache behaviour (requires cc)
# ---------------------------------------------------------------------------


@needs_cc
def test_same_signature_never_recompiles(tmp_path):
    cache = NativeCache(root=tmp_path)
    graph = _elementwise_graph()
    k1 = _build(graph, cache)
    assert k1 is not None
    assert cache.stats.compiles == 1

    # Same process: served from the loaded-library memo.
    k2 = _build(_elementwise_graph("renamed"), cache)
    assert k2 is not None and k2.signature == k1.signature
    assert cache.stats.compiles == 1
    assert cache.stats.memo_hits == 1

    # New process (fresh cache object, same root): served from disk.
    cold = NativeCache(root=tmp_path)
    k3 = _build(graph, cold)
    assert k3 is not None
    assert cold.stats.compiles == 0
    assert cold.stats.disk_hits == 1


@needs_cc
def test_kernel_matches_numpy_closure(tmp_path):
    graph = _elementwise_graph()
    opt, group, external = _first_group(graph)
    native = _build(graph, NativeCache(root=tmp_path))
    assert native is not None and native.exact
    numpy_kernel = build_kernel(opt, group, Target("cpu"))
    rng = np.random.default_rng(0)
    args = [
        rng.standard_normal(opt.node(nid).ty.shape, dtype=np.float32)
        for nid in external
    ]
    np.testing.assert_array_equal(native(args), numpy_kernel.fn(args))


@needs_cc
def test_corrupted_so_is_evicted_and_rebuilt(tmp_path):
    cache = NativeCache(root=tmp_path)
    graph = _elementwise_graph()
    k1 = _build(graph, cache)
    assert k1 is not None

    # Corrupt via unlink + rewrite (a new inode, like a torn copy or a
    # disk error would leave) — never truncate in place, because the
    # builder process still has the original inode mapped.
    so = cache.object_path(k1.signature)
    so.unlink()
    so.write_bytes(b"this is not an ELF shared object")

    # dlopen dedupes by pathname inside one process, so the corrupted
    # entry can only be observed by a genuinely fresh process.  It must
    # evict, recompile, and still compute correctly.
    script = textwrap.dedent(
        f"""
        import json
        import numpy as np
        from repro.compiler.fusion import plan_fusion
        from repro.compiler.lowering import build_kernel
        from repro.compiler.native import NativeCache, NativeOptions
        from repro.compiler.native.renderer import DEFAULT_TILE
        from repro.compiler.pass_manager import PassManager, default_passes
        from repro.compiler.target import Target
        from repro.ir.builder import GraphBuilder

        b = GraphBuilder("cachetest")
        x = b.input("x", (4, 8))
        y = b.input("y", (4, 8))
        z = b.op("relu", b.op("add", x, y))
        graph = PassManager(default_passes(2)).run(b.build(z))
        group = plan_fusion(graph)[0]
        cache = NativeCache(root={str(tmp_path)!r})
        k = build_kernel(
            graph, group, Target("cpu", backend="native"),
            native=NativeOptions(cache=cache, tile=DEFAULT_TILE),
        )
        assert k.backend == "native"
        a = np.ones((4, 8), dtype=np.float32)
        np.testing.assert_array_equal(k([a, -2 * a]), np.zeros((4, 8), np.float32))
        print(json.dumps(cache.stats.snapshot()))
        """
    )
    src_dir = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src_dir)},
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["evictions"] == 1
    assert stats["compiles"] == 1
    assert stats["disk_hits"] == 0


# ---------------------------------------------------------------------------
# The contest (requires cc; the clock is scripted, so outcomes are not
# this host's opinion)
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize(
    "durations, backend", [((2e-4, 9e-4), "native"), ((9e-4, 2e-4), "numpy")]
)
def test_contest_loser_is_not_the_kernel(tmp_path, durations, backend):
    cache = NativeCache(root=tmp_path)
    graph = _elementwise_graph()
    (kernel, reason), _ = _contest(graph, cache, durations)
    assert (kernel is not None) == (backend == "native")
    assert reason == {"native": "native", "numpy": "numpy: lost contest"}[backend]
    assert cache.stats.contests == 1
    assert cache.stats.numpy_wins == (backend == "numpy")

    meta = cache.read_meta(kernel_signature(*_first_group(graph)))
    assert meta["backend"] == backend
    assert meta["tile"] == list(DEFAULT_TILE)
    assert meta["timings_s"] == pytest.approx(
        {"4x4": durations[0], "numpy": durations[1]}
    )

    # Another process over the same root: same answer, nothing timed,
    # nothing compiled, and no dlopen of a kernel NumPy won.  The script
    # is reversed, so consulting the clock would flip the result.
    warm = NativeCache(root=tmp_path)
    (_, again), clock = _contest(graph, warm, durations[::-1])
    assert again == reason
    assert clock.calls == 0
    assert warm.stats.contests == 0 and warm.stats.compiles == 0
    assert warm.stats.disk_hits == (backend == "native")

    # What lowering makes of it: a lost contest keeps the closure
    # exactly as a renderer rejection does.
    opt, group, _ = _first_group(graph)
    compiled = build_kernel(opt, group, NATIVE_CPU, native=NativeOptions(cache=warm))
    assert compiled.backend == backend and compiled.reason == reason
    assert isinstance(compiled.fn, runtime_mod.NativeKernel) == (backend == "native")
    if backend == "numpy":
        # The closure, whose last op (relu) has an ``out=`` form: its
        # ``run_into`` writes exactly the closure's bits.
        assert compiled.exact
        rng = np.random.default_rng(0)
        args = [
            rng.standard_normal(opt.node(i).ty.shape).astype(np.float32)
            for i in compiled.input_ids
        ]
        closure = build_kernel(opt, group, Target("cpu")).fn
        out = np.full(opt.node(compiled.output_id).ty.shape, np.nan, np.float32)
        assert compiled.run_into(args, out) is out
        np.testing.assert_array_equal(
            out.view(np.uint32), closure(args).view(np.uint32)
        )
    else:
        assert compiled.run_into is not None


@needs_cc
def test_contest_stops_as_soon_as_decided(tmp_path):
    graph = _elementwise_graph()
    base = kernel_signature(*_first_group(graph))

    def contest(name, durations):
        cache = NativeCache(root=tmp_path / name)
        (_, reason), clock = _contest(graph, cache, durations)
        return reason, clock.samples, cache.read_meta(base)["rounds"]

    # 10x apart on the cold call, above 1 ms: one call per candidate.
    assert contest("cold", (2e-2, 2e-3)) == ("numpy: lost contest", 2, 0)
    # 10x apart under 1 ms: the cold call may not decide, one round does.
    assert contest("fast", (1e-6, 1e-5)) == ("native", 4, 1)
    # 1.1x apart: never decided early, every round is run.
    assert contest("close", (1.0e-4, 1.1e-4)) == (
        "native", 2 + 2 * _TUNE_ROUNDS, _TUNE_ROUNDS,
    )
    # NumPy keeps a tie.
    assert contest("tie", (1e-4, 1e-4))[0] == "numpy: lost contest"


@needs_cc
def test_c_win_over_a_heavy_numpy_kernel_is_contested_again(tmp_path):
    graph = _elementwise_graph()
    base = kernel_signature(*_first_group(graph))
    # C wins at once, but over a NumPy time above 1 ms: the decision
    # gets a second look, and the second contest is the one that stands.
    cache = NativeCache(root=tmp_path / "flipped")
    (kernel, reason), clock = _contest(graph, cache, (2e-3, 2e-2, 2e-3, 2e-4))
    assert kernel is None and reason == "numpy: lost contest"
    assert clock.samples == 4 and cache.stats.contests == 2
    assert cache.stats.numpy_wins == 1
    assert cache.read_meta(base)["backend"] == "numpy"

    cache = NativeCache(root=tmp_path / "confirmed")
    (kernel, reason), clock = _contest(graph, cache, (2e-3, 2e-2))
    assert kernel is not None and reason == "native"
    assert clock.samples == 4 and cache.stats.contests == 2


@needs_cc
def test_autotune_persists_choice_and_warm_runs_skip_search(tmp_path):
    cache = NativeCache(root=tmp_path)
    graph = _dense_graph()
    base = kernel_signature(*_first_group(graph))
    # One call per GEMM_TILES entry, then NumPy: (8, 2) is 2x ahead of
    # everything else, which settles it after one round.
    durations = (3e-4, 2e-4, 1e-4, 4e-4, 5e-4, 6e-4)
    assert GEMM_TILES[2] == (8, 2)
    (k1, reason), clock = _contest(graph, cache, durations, autotune=True)
    assert reason == "native" and k1.rendered.tile == (8, 2)
    assert k1.signature == variant_signature(base, (8, 2))
    assert clock.samples == 2 * (len(GEMM_TILES) + 1)
    assert cache.stats.autotunes == 1 and cache.stats.contests == 1
    assert cache.stats.compiles == len(GEMM_TILES)
    meta = cache.read_meta(base)
    assert (meta["backend"], meta["tile"]) == ("native", [8, 2])
    assert set(meta["timings_s"]) == {"4x4", "2x8", "8x2", "8x8", "4x8", "numpy"}

    # Warm process: the persisted meta short-circuits the search and the
    # chosen variant loads from disk — zero compiles, zero re-timing —
    # whether or not that process asks for autotuning.
    for autotune in (True, False):
        warm = NativeCache(root=tmp_path)
        k2 = _build(graph, warm, tile=None, autotune=autotune)
        assert k2 is not None and k2.signature == k1.signature
        assert warm.stats == CacheStats(disk_hits=1)


@needs_cc
def test_explicit_tile_bypasses_autotune(tmp_path):
    cache = NativeCache(root=tmp_path)
    graph = _dense_graph()
    # NumPy wins the contest here ...
    (kernel, reason), _ = _contest(graph, cache, (9e-4,) * 5 + (2e-4,), autotune=True)
    assert kernel is None and reason == "numpy: lost contest"
    # ... and a pinned tile is rendered C all the same: the caller chose
    # the variant, nothing is looked up or timed.
    contests = cache.stats.contests
    kernel = _build(graph, cache, autotune=True, tile=(2, 8))
    assert kernel is not None
    assert kernel.rendered.tile == (2, 8)
    assert kernel.signature.endswith("_t2x8")
    assert cache.stats.contests == contests
    opt, group, _ = _first_group(graph)
    options = NativeOptions(cache=cache, tile=(2, 8))
    assert build_kernel(opt, group, NATIVE_CPU, native=options).reason == (
        "native: pinned"
    )


@needs_cc
def test_moved_cache_is_rebuilt_and_recontested(tmp_path, monkeypatch):
    graph = _elementwise_graph()
    here = NativeCache(root=tmp_path)
    assert _contest(graph, here, (2e-4, 9e-4))[0][1] == "native"
    # The same directory, restored on another machine: objects built for
    # that CPU and decisions timed on it are not trusted.
    monkeypatch.setattr(cache_mod, "toolchain_fingerprint", lambda: "another host")
    moved = NativeCache(root=tmp_path)
    assert _contest(graph, moved, (9e-4, 2e-4))[0][1] == "numpy: lost contest"
    assert moved.stats.compiles == 1 and moved.stats.contests == 1
    assert moved.stats.disk_hits == 0


@needs_cc
@pytest.mark.parametrize("model", ["wide_deep", "mtdnn"])
def test_engines_sharing_a_cache_are_bit_identical(tmp_path, monkeypatch, model):
    # Alternate the winner so the modules are mixed whatever this host
    # would have measured.
    scripts = itertools.cycle([(9e-4, 2e-4), (2e-4, 9e-4)])
    real = native_mod.run_contest
    monkeypatch.setattr(
        native_mod,
        "run_contest",
        lambda *args: real(*args[:5], ScriptedClock(next(scripts))),
    )
    graph = build_model(model, tiny=True)
    feeds = make_inputs(graph)
    outputs, caches = [], []
    for _ in range(2):
        # A cache object each: the second engine has only the directory
        # to go by, like another process.
        caches.append(NativeCache(root=tmp_path))
        options = NativeOptions(cache=caches[-1])
        engine = DuetEngine(compiler=Compiler(backend="native", native=options))
        opt = engine.optimize(graph)
        reasons = {
            k.reason for task in opt.plan.tasks for k in task.module.kernels
        }
        assert {"native", "numpy: lost contest"} <= reasons
        outputs.append(engine.run(opt, feeds).outputs)
    assert caches[0].stats.contests > 0 and caches[0].stats.compiles > 0
    assert caches[1].stats.contests == 0 and caches[1].stats.compiles == 0
    budget = graph_ulp_budget(graph)
    for first, second, ref in zip(*outputs, run_graph(graph, feeds)):
        np.testing.assert_array_equal(first, second)
        assert ulp_close(first, ref, budget)


# ---------------------------------------------------------------------------
# The compile batch
# ---------------------------------------------------------------------------


@needs_cc
def test_batch_compiles_everything_before_the_first_contest(tmp_path, monkeypatch):
    graph = PassManager(default_passes(2)).run(build_model("mtdnn", tiny=True))
    events = []
    real_compile, real_contest = native_mod.compile_source, native_mod.run_contest

    def compile_hook(source, out_dir):
        events.append("compile starts")
        try:
            return real_compile(source, out_dir)
        finally:
            events.append("compile ends")

    def contest_hook(*args):
        events.append("contest")
        return real_contest(*args)

    monkeypatch.setattr(native_mod, "compile_source", compile_hook)
    monkeypatch.setattr(native_mod, "run_contest", contest_hook)
    batch = NativeCache(root=tmp_path / "batch")
    module = lower(graph, NATIVE_CPU, native=NativeOptions(cache=batch))
    assert {k.reason for k in module.kernels} <= {"native", "numpy: lost contest"}

    first_contest = events.index("contest")
    assert set(events[first_contest:]) == {"contest"}
    assert events[:first_contest].count("compile ends") == batch.stats.compiles
    if (os.cpu_count() or 1) > 1:
        assert events[:2] == ["compile starts"] * 2  # concurrently

    # The same module one kernel (and so one compile) at a time.
    monkeypatch.undo()
    serial = NativeCache(root=tmp_path / "serial")
    for group in plan_fusion(graph):
        build_kernel(graph, group, NATIVE_CPU, native=NativeOptions(cache=serial))

    def entries(cache, suffix):
        return {p.name: p for p in cache.root.glob(f"*{suffix}")}

    assert entries(batch, ".so").keys() == entries(serial, ".so").keys()
    assert entries(batch, ".c").keys() == entries(serial, ".c").keys()
    for name, path in entries(batch, ".c").items():
        assert path.read_bytes() == entries(serial, ".c")[name].read_bytes()
    # Once per signature, however many kernels of the module share it.
    assert batch.stats.compiles == serial.stats.compiles == len(entries(batch, ".so"))
    assert batch.stats.compiles < len(module.kernels)


@pytest.fixture
def fake_cc(monkeypatch, tmp_path):
    """``install(misbehave, marker)`` makes ``REPRO_CC`` a compiler that
    runs the shell fragment ``misbehave`` for sources containing
    ``marker`` and is the real one otherwise, for one test."""
    real = find_compiler()

    def install(misbehave, marker=""):
        script = tmp_path / "fakecc"
        script.write_text(
            "#!/bin/sh\n"
            'case "$1" in --version) echo "fakecc 1.0"; exit 0;; esac\n'
            'for a in "$@"; do case "$a" in *.c) src="$a";; esac; done\n'
            f"if grep -q '{marker}' \"$src\"; then {misbehave}; fi\n"
            f'exec {real} "$@"\n'
        )
        script.chmod(0o755)
        monkeypatch.setenv(ENV_CC, str(script))
        find_compiler.cache_clear()

    yield install
    monkeypatch.undo()
    find_compiler.cache_clear()


def _no_temp_files(root):
    return not [p.name for p in root.iterdir() if p.name.startswith("tmp")]


@needs_cc
def test_failing_compiler_costs_its_own_kernel_only(tmp_path, fake_cc):
    fake_cc("echo 'internal compiler error' >&2; exit 1", marker="max_pool2d ->")
    cache = NativeCache(root=tmp_path / "cache")
    graph = build_model("wide_deep", tiny=True)
    options = NativeOptions(cache=cache, tile=DEFAULT_TILE)
    module = Compiler(backend="native", native=options).compile_cpu(graph)

    failed = [k for k in module.kernels if k.reason == "numpy: build failed"]
    assert failed and all(k.backend == "numpy" for k in failed)
    assert all(
        any(module.graph.node(n).op == "max_pool2d" for n in k.node_ids)
        for k in failed
    )
    others = [k for k in module.kernels if k not in failed]
    assert others and all(k.reason == "native: pinned" for k in others)
    assert cache.stats.fallbacks == len(failed)
    assert _no_temp_files(cache.root)
    feeds = make_inputs(graph)
    for got, ref in zip(module.run(feeds), run_graph(graph, feeds)):
        assert ulp_close(got, ref, graph_ulp_budget(graph))


@needs_cc
def test_hung_compiler_is_a_failed_build_not_an_exception(
    tmp_path, monkeypatch, fake_cc
):
    fake_cc("exec sleep 60")
    monkeypatch.setattr(runtime_mod, "COMPILE_TIMEOUT_S", 0.2)
    cache = NativeCache(root=tmp_path / "cache")
    graph = _elementwise_graph()
    module = Compiler(
        backend="native", native=NativeOptions(cache=cache)
    ).compile_cpu(graph)
    assert [k.reason for k in module.kernels] == ["numpy: build failed"]
    assert cache.stats.fallbacks == 1 and cache.stats.compiles == 0
    assert _no_temp_files(cache.root)
    feeds = make_inputs(graph)
    np.testing.assert_array_equal(module.run(feeds)[0], run_graph(graph, feeds)[0])


def test_disable_env_forces_numpy_fallback(monkeypatch):
    monkeypatch.setenv(ENV_DISABLE, "1")
    find_compiler.cache_clear()
    try:
        assert not native_available()
        opt, group, external = _first_group(_elementwise_graph())
        with pytest.warns(RuntimeWarning, match="falls back to NumPy"):
            native_mod._warned_no_cc = False
            picks = build_native_kernels(opt, [(group, external, None)])
        assert picks == [(None, "numpy: no compiler")]
        # Lowering keeps the NumPy closure rather than erroring out.
        kernel = build_kernel(opt, group, NATIVE_CPU)
        assert kernel.backend == "numpy"
    finally:
        monkeypatch.delenv(ENV_DISABLE)
        find_compiler.cache_clear()
