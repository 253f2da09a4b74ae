"""The traced pass: every layer timed from outside, around public calls.

A traced run sets the workload up once, layer by layer under a ``setup``
span; probes each layer on the workload's own models; then replays the
workload's traffic for a quarter of the run length, recording a
``request`` span tree on every other round.  Layers a workload does not
reach are probed on a stand-in and say so: ``plan_zoo`` serves nothing,
so its runtime and serving probes run the tiny variants of its models;
the open-loop step metrics of every workload but ``batch_open`` come
from a short run of the same chain at the same rates.
"""

from __future__ import annotations

import gc
import resource
import time
from pathlib import Path

import numpy as np

from repro.compiler import Compiler
from repro.compiler.native import NativeCache, NativeOptions, graph_ulp_budget
from repro.core import (
    CompilerAwareProfiler,
    DuetEngine,
    GreedyCorrectionScheduler,
    partition_graph,
)
from repro.core.scheduler import schedule_with_policy
from repro.devices import make_mesh
from repro.runtime import ThreadedExecutor, simulate, simulate_batch
from repro.serving import ServingConfig

from harness.inputs import rng_for
from harness.metrics import OPEN_STEPS
from harness.spans import Tracer
from harness.stats import geomean, median, percentile
from harness.workloads import (
    RESPONSE_TIMEOUT_S,
    SLO_LIMIT_S,
    WORKLOADS,
    Checker,
    OpenResult,
    Table,
    Workload,
    build_graph,
    build_subjects,
    closed_loop,
    make_engine,
    open_loop,
    plan_loop,
    plan_setup,
)

__all__ = ["traced_pass", "open_step_metrics"]

clock = time.perf_counter
MS = 1e3


def _timed(fn, reps: int = 1) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = clock()
        fn()
        out.append(clock() - t0)
    return out


def _checked_runs(call, reps: int, subject, checker: Checker) -> list[float]:
    """Time ``call()`` ``reps`` times; every result is reference-checked
    after its clock has stopped."""
    runs = []
    for _ in range(reps):
        t0 = clock()
        result = call()
        runs.append(clock() - t0)
        checker.expect(result.outputs, subject.refs[0], subject.budget)
    return runs


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _geo_ms(seconds) -> float:
    return geomean(max(s, 1e-9) for s in seconds) * MS


def open_step_metrics(res: OpenResult) -> dict[str, float]:
    """Per-step latency and failures of an open-loop run, the highest
    step that held the limit, and how late the generator ran."""
    out: dict[str, float] = {}
    best, held = 0.0, True
    for i, rate in enumerate(OPEN_STEPS):
        latency = res.latency[res.ok(i)]
        p50 = median(latency)
        # A quarter-length step at 1000 rps has too few samples for a
        # guarded p99; the full-length run's p95 is the guarded tail.
        p99 = percentile(latency, 99, strict=False)
        failed = res.failed_share(i)
        out[f"serving.open.r{rate}.p50_ms"] = p50 * MS
        out[f"serving.open.r{rate}.p99_ms"] = p99 * MS
        out[f"serving.open.r{rate}.failed_share"] = failed
        held = held and (
            p99 <= SLO_LIMIT_S and failed <= 0.001 and not res.backlog_grows(i)
        )
        if held:
            best = float(rate)
    out["serving.max_rate_ok_rps"] = best
    out["serving.gen_late_p99_ms"] = percentile(res.late, 99, strict=False) * MS
    return out


def _serving_metrics(table: Table) -> dict[str, float]:
    return {
        "serving.submit_us": median(table.submit_s) * 1e6,
        "serving.queue_wait_ms": _geo_ms(
            median(v) for v in table.by_model("queue_wait_s").values()
        ),
        "serving.exec_wall_ms": _geo_ms(
            median(v) for v in table.by_model("exec_wall_s").values()
        ),
        "serving.batch_size_mean": float(np.mean(table.batch_size)),
        "serving.stacked_share": float(np.mean(table.stacked)),
    }


def _overhead_share(traced: dict, untraced: dict) -> float:
    """Traced p50 over untraced p50, minus one (geometric mean over models)."""
    return (
        geomean(median(v) for v in traced.values())
        / geomean(median(v) for v in untraced.values())
        - 1.0
    )


def _outcomes(frontend, outcome: str) -> float:
    samples = frontend.metrics_snapshot()["duet_requests_total"]["samples"]
    return sum(v for key, v in samples.items() if ("outcome", outcome) in key)


def _arena_mb(plan) -> float:
    """What ``TensorArena.preallocate`` sizes: one buffer per kernel output."""
    total = sum(
        task.module.graph.node(kernel.output_id).ty.size_bytes
        for task in plan.tasks
        for kernel in task.module.kernels
    )
    return total / 2**20


def _probe_offline(workload: Workload, engine: DuetEngine, tracer: Tracer):
    """``setup`` part one: each model built, partitioned, profiled,
    scheduled, compiled and optimized under its own span."""
    machine = engine.machine
    staged = {}
    for name in workload.models:
        with tracer.span("models.build"):
            graph = build_graph(name, workload.tiny)
        with tracer.span("core.partition"):
            partition = partition_graph(graph)
        with tracer.span("core.profile"):
            profiles = CompilerAwareProfiler(
                machine=machine, compiler=engine.compiler
            ).profile_partition(partition)
        with tracer.span("core.schedule"):
            GreedyCorrectionScheduler(machine=machine).schedule(
                graph, partition, profiles
            )
        with tracer.span("compiler.compile"):
            Compiler().compile_cpu(graph)
        with tracer.span("core.optimize"):
            opt = engine.optimize(graph)
        staged[name] = (graph, partition, profiles, opt)
    return staged


def _probe_core(staged, engine: DuetEngine, seed: int) -> dict[str, float]:
    machine = engine.machine
    mesh_engine = DuetEngine(machine=make_mesh(3), compiler=engine.compiler)
    mesh, sim, sim_batch = [], [], []
    policy = {"dp": [], "greedy": [], "heft": []}
    rng = rng_for(seed, "simulate")
    for graph, partition, profiles, opt in staged.values():
        mesh += _timed(lambda: mesh_engine.optimize(graph))
        for name, samples in policy.items():
            samples += _timed(
                lambda: schedule_with_policy(name, graph, partition, profiles, machine)
            )
        sim.append(min(_timed(lambda: simulate(opt.plan, machine), reps=3)))
        sim_batch += _timed(lambda: simulate_batch(opt.plan, machine, rng, 5000))
    opts = [opt for *_, opt in staged.values()]
    return {
        "core.optimize_mesh4_ms": _geo_ms(mesh),
        **{f"core.policy.{k}_ms": _geo_ms(v) for k, v in policy.items()},
        "runtime.simulate_ms": _geo_ms(sim),
        "runtime.simulate_batch5000_ms": _geo_ms(sim_batch),
        "core.subgraphs": float(sum(len(o.partition.subgraphs) for o in opts)),
        "core.hetero_share": sum(not o.used_fallback for o in opts) / len(opts),
        "core.predicted_latency_ms": _geo_ms(o.latency for o in opts),
        "core.virtual_speedup_vs_single": geomean(
            min(o.single_device_latency.values()) / o.latency for o in opts
        ),
    }


def _probe_compiler(
    workload: Workload, subjects, tmp: Path, reps: int, checker: Checker
) -> dict[str, float]:
    """Whole-model modules both ways: compile cold and warm, run, compare."""
    cold_cache = NativeCache(root=tmp / "cold")
    warm_cache = NativeCache(root=tmp / "cold")  # same files, nothing loaded yet
    cold, warm, ratios, floor = [], [], [], []
    kernels = native_kernels = 0
    for s in subjects:
        mod_np = Compiler().compile_cpu(s.graph)
        mods = {}
        for label, cache, times in (("cold", cold_cache, cold), ("warm", warm_cache, warm)):
            compiler = Compiler(backend="native", native=NativeOptions(cache=cache))
            t0 = clock()
            mods[label] = compiler.compile_cpu(s.graph)
            times.append(clock() - t0)
        mod_nat = mods["cold"]
        kernels += len(mod_nat.kernels)
        native_kernels += sum(k.backend == "native" for k in mod_nat.kernels)
        feeds, ref = s.feeds[0], s.refs[0]
        checker.expect(mod_np.run(feeds), ref, 0.0)
        checker.expect(mod_nat.run(feeds), ref, graph_ulp_budget(s.graph))
        best_np = best_nat = float("inf")
        for _ in range(reps):  # interleaved, so a stall cannot favour one side
            best_np = min(best_np, *_timed(lambda: mod_np.run(feeds)))
            best_nat = min(best_nat, *_timed(lambda: mod_nat.run(feeds)))
        ratios.append(best_np / best_nat)
        floor.append(best_nat if workload.backend == "native" else best_np)
    return {
        "compiler.module_run_ms": _geo_ms(floor),
        "compiler.native.speedup_vs_numpy": geomean(ratios),
        "compiler.native.compile_cold_ms": _geo_ms(cold),
        "compiler.native.compile_warm_ms": _geo_ms(warm),
        "compiler.kernels": float(kernels),
        "compiler.native.kernel_share": native_kernels / kernels,
        "compiler.native.cache_compiles": float(cold_cache.stats.compiles),
        "compiler.native.cache_hits": float(
            warm_cache.stats.disk_hits + warm_cache.stats.memo_hits
        ),
        "compiler.native.fallbacks": float(cold_cache.stats.fallbacks),
    }


def _probe_runtime(
    subjects, opts, sessions, engine, reps: int, checker: Checker, tracer: Tracer
):
    """Inline session, the same session under the public ``trace_sink``
    hook, and the threaded executor, on identical inputs."""
    inline, threaded, ratio, busy, gaps = {}, [], [], [], 0.0
    tasks = 0
    for s in subjects:
        feeds, opt = s.feeds[0], opts[s.name]
        session = sessions[s.name]
        inline[s.name] = median(
            _checked_runs(lambda: session.run(feeds), reps, s, checker)
        )

        stamps: list[tuple[str, str, float]] = []
        side = engine.session(
            opt, trace_sink=lambda e: stamps.append((e.kind, e.task_id, clock()))
        )
        side.run(feeds)  # first touch of the fresh session's arena
        stamps.clear()
        with tracer.span("runtime.session_run") as run_span:
            side.run(feeds)
        started = {}
        task_s = 0.0
        n_tasks = 0
        for kind, task_id, at in stamps:
            if kind == "task-start":
                started[task_id] = at
            elif kind == "task-finish":
                tracer.add("runtime.task", started[task_id], at, parent=run_span.id)
                task_s += at - started[task_id]
                n_tasks += 1
        tasks += n_tasks
        busy.append(task_s)
        gaps += run_span.duration - task_s

        executor = ThreadedExecutor(opt.plan)
        threaded.append(
            median(_checked_runs(lambda: executor.run(feeds), reps, s, checker))
        )
        ratio.append(threaded[-1] / inline[s.name])
    values = {
        "runtime.session_run_ms": _geo_ms(inline.values()),
        "runtime.tasks": float(tasks),
        "runtime.task_busy_ms": _geo_ms(busy),
        "runtime.dispatch_gap_us_per_task": gaps / tasks * 1e6,
        "runtime.threaded_run_ms": _geo_ms(threaded),
        "runtime.threaded_over_inline": geomean(ratio),
        "runtime.arena_mb": sum(_arena_mb(opts[s.name].plan) for s in subjects),
    }
    return values, inline


def _probe_nobatch(workload, subjects, opts, engine, checker) -> float:
    """Request latency with the batcher off: no linger, same hand-offs."""
    medians = []
    with engine.serve(opts, config=ServingConfig(batching=False)) as frontend:
        for s in subjects:
            runs = _checked_runs(
                lambda: frontend.request(
                    s.feeds[0], model=s.name, timeout_s=RESPONSE_TIMEOUT_S
                ),
                workload.nobatch_requests, s, checker,
            )
            medians.append(median(runs))
    return _geo_ms(medians)


def _chain_probe(seed: int, seconds: float, checker: Checker) -> OpenResult:
    """The ``batch_open`` traffic, shortened, for workloads that have no
    arrival schedule of their own."""
    workload = WORKLOADS["batch_open"]
    (subject,) = build_subjects(workload, seed)
    engine = DuetEngine()
    # By now this process holds every module and session the probes made;
    # a full collection over them stalls the server for tens of
    # milliseconds, which a fresh ``batch_open`` process never sees.
    gc.collect()
    gc.freeze()
    try:
        with engine.serve(subject.graph, config=workload.serving_config()) as frontend:
            for _ in range(50):
                frontend.request(subject.feeds[0])
            return open_loop(frontend, subject, seed, seconds, checker)
    finally:
        gc.unfreeze()


def traced_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    tmp: Path,
    checker: Checker,
    tracer: Tracer,
    reps: int,
) -> dict[str, float]:
    """Run the traced pass and return every per-layer metric."""
    v: dict[str, float] = {}
    proxy = workload.kind == "plan"  # nothing of its own to run or serve
    subjects = build_subjects(workload, seed, tiny=True if proxy else None)
    v["ir.interpreter_ms"] = _geo_ms(median(s.interp_s) for s in subjects)

    engine = make_engine(workload.backend, tmp / "setup")
    proxy_opts = {s.name: engine.optimize(s.graph) for s in subjects} if proxy else None
    with tracer.span("setup"):
        staged = _probe_offline(workload, engine, tracer)
        opts = proxy_opts or {name: opt for name, (*_, opt) in staged.items()}
        sessions = {}
        for s in subjects:
            with tracer.span("runtime.session_build"):
                sessions[s.name] = engine.session(opts[s.name])
        with tracer.span("serving.frontend_build"):
            frontend = engine.serve(opts, config=workload.serving_config())
        for s in subjects:
            result = frontend.request(
                s.feeds[0], model=s.name, timeout_s=RESPONSE_TIMEOUT_S
            )
            checker.expect(result.outputs, s.refs[0], s.budget)
    for name in (
        "models.build", "core.partition", "core.profile", "core.schedule",
        "compiler.compile", "core.optimize", "runtime.session_build",
    ):
        v[f"{name}_ms"] = _geo_ms(tracer.durations(name))
    v["serving.frontend_build_ms"] = tracer.durations("serving.frontend_build")[0] * MS

    v.update(_probe_core(staged, engine, seed))
    v.update(_probe_compiler(workload, subjects, tmp, reps, checker))
    runtime, inline = _probe_runtime(
        subjects, opts, sessions, engine, reps, checker, tracer
    )
    v.update(runtime)
    v["serving.nobatch_request_ms"] = _probe_nobatch(
        workload, subjects, opts, engine, checker
    )

    # The workload's own traffic, a quarter as long, every other round traced.
    pairs = plan_setup(workload.models, checker) if proxy else None
    with frontend:
        cpu0, attempted0 = _cpu_s(), checker.attempted
        if workload.kind == "open":
            opened = open_loop(frontend, subjects[0], seed, seconds / 4, checker, tracer)
            table = opened.table()
        elif workload.kind == "closed":
            table = closed_loop(
                frontend, subjects, seconds / 4, checker, tracer, min_rounds=2
            ).table()
        else:
            planned = plan_loop(pairs, seconds / 4, checker, tracer, min_cycles=4)
        v["process.cpu_ms_per_op"] = (
            (_cpu_s() - cpu0) * MS / (checker.attempted - attempted0)
        )
        if proxy:
            v["trace.overhead_share"] = _overhead_share(
                planned.by_pair(traced=True), planned.by_pair(traced=False)
            )
            table = closed_loop(frontend, subjects, seconds / 8, checker).table()
        else:
            v["trace.overhead_share"] = _overhead_share(
                table.by_model("latency_s", traced=True),
                table.by_model("latency_s", traced=False),
            )
        for outcome in ("rejected", "shed", "expired"):
            v[f"serving.{outcome}"] = _outcomes(frontend, outcome)
    v.update(_serving_metrics(table))
    request_p50 = {m: median(x) for m, x in table.by_model("latency_s").items()}
    v["serving.overhead_ms"] = (
        float(np.mean([request_p50[m] - inline[m] for m in request_p50])) * MS
    )

    if workload.kind != "open":
        opened = _chain_probe(seed, seconds / 4, checker)
    v.update(open_step_metrics(opened))
    v["failed_share"] = checker.failed / checker.attempted
    return v
