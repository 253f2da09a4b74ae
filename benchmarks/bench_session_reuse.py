"""Session-reuse benchmark: EngineSession vs per-call engine runs.

The serving claim behind the unified runtime core: one scheduling decision
should be executed many times over many requests without re-entering the
scheduler.  Two comparisons on a mid-size zoo model (Wide&Deep, test-scale
config so CI measures dispatch overhead rather than raw kernel FLOPs;
its plan co-executes 5 tasks across both devices, so the session path
resolves real cross-device feeds):

1. **Amortization** — serving N requests through one ``engine.session()``
   (optimize once, arena-backed dispatch per request) versus the per-call
   baseline of ``engine.optimize(graph)`` + ``engine.run(opt, inputs)``
   for every request.  Session reuse must win by a wide margin: the
   partition/profile/schedule pipeline is paid once instead of N times.
2. **Steady state** — per-request dispatch through a warm session versus
   ``engine.run`` on an already-held optimization.  Kernel compute
   dominates both, so this is a guardrail, not a speedup claim: the
   session (which also buys stable arena storage and a tracing hook) must
   stay within a small factor of the bare run, its arena must stop
   allocating after warmup, and its pool must be the plan's liveness
   peak, up to 64-byte alignment per slot.

Outputs stay bit-identical to a fresh ``DuetEngine.run`` throughout.
"""

import time

import numpy as np
from conftest import emit

from repro.bench import format_table
from repro.core import DuetEngine
from repro.ir import make_inputs
from repro.models import build_model
from repro.runtime.memory import ALIGN, live_peak

N_REQUESTS = 30
MODEL = "wide_deep"


def test_session_reuse_beats_per_call_runs(machine):
    graph = build_model(MODEL, tiny=True)
    feeds = make_inputs(graph)
    engine = DuetEngine(machine=machine)

    # Baseline: the pre-session serving loop — every request re-enters the
    # whole optimize pipeline before executing.
    t0 = time.perf_counter()
    baseline_outputs = None
    for _ in range(N_REQUESTS):
        opt = engine.optimize(graph)
        result = engine.run(opt, feeds)
        baseline_outputs = result.outputs
    per_call_s = (time.perf_counter() - t0) / N_REQUESTS

    # Session: optimize once, then serve.  The first request materializes
    # the parameters (DUET loads weights once) — that is setup, not
    # steady-state serving cost.
    t0 = time.perf_counter()
    session = engine.session(graph)
    session.run(feeds)
    setup_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    results = session.run_many([feeds] * N_REQUESTS)
    session_s = (time.perf_counter() - t0) / N_REQUESTS

    # Steady state: engine.run on a held optimization vs warm session.
    opt = session.opt
    t0 = time.perf_counter()
    for _ in range(N_REQUESTS):
        engine.run(opt, feeds)
    held_run_s = (time.perf_counter() - t0) / N_REQUESTS

    allocations_before = session.arena.allocations
    session.run(feeds)
    allocations_after = session.arena.allocations
    arena = session.arena
    peak = live_peak(arena.slots)

    emit(
        format_table(
            [
                {
                    "path": "optimize+run per request",
                    "per_request_ms": per_call_s * 1e3,
                    "vs_session": per_call_s / session_s,
                },
                {
                    "path": "engine.run (held opt)",
                    "per_request_ms": held_run_s * 1e3,
                    "vs_session": held_run_s / session_s,
                },
                {
                    "path": "EngineSession.run",
                    "per_request_ms": session_s * 1e3,
                    "vs_session": 1.0,
                },
            ],
            title=(
                f"Session reuse — {MODEL} (tiny), {N_REQUESTS} requests "
                f"(session setup {setup_s * 1e3:.1f} ms, paid once; pool "
                f"{arena.nbytes} B for a {peak} B liveness peak over "
                f"{arena.buffer_count} slots)"
            ),
        )
    )

    # The serving claim: session reuse beats per-call engine runs by a
    # wide margin — the optimize pipeline is amortized away.
    assert per_call_s >= 2 * session_s, (per_call_s, session_s)
    # Steady-state guardrail: arena-backed dispatch stays within a small
    # factor of a bare engine.run on a held optimization (kernel compute
    # dominates both; the session additionally buys stable buffers).
    assert session_s <= 2.0 * held_run_s, (session_s, held_run_s)
    # Arena stops allocating once warm.
    assert allocations_after == allocations_before, (
        allocations_before,
        allocations_after,
    )
    # The pool is the liveness peak, up to each slot's alignment.
    assert arena.nbytes <= peak + ALIGN * arena.buffer_count, (arena.nbytes, peak)
    # Bit-identical outputs to the per-call baseline.
    for got, want in zip(results[-1].outputs, baseline_outputs):
        np.testing.assert_array_equal(got, want)


def test_session_tracing_hook_is_cheap_and_complete(machine):
    graph = build_model(MODEL, tiny=True)
    feeds = make_inputs(graph)
    engine = DuetEngine(machine=machine)
    events = []
    session = engine.session(graph, trace_sink=events.append)
    session.run(feeds)
    n_tasks = len(session.plan.tasks)
    starts = [e for e in events if e.kind == "task-start"]
    finishes = [e for e in events if e.kind == "task-finish"]
    assert len(starts) == n_tasks
    assert len(finishes) == n_tasks
    emit(
        f"structured trace: {len(events)} events for {n_tasks} tasks "
        f"({MODEL})"
    )
