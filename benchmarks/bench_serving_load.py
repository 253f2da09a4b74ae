"""Serving-layer load benchmark: batched vs. unbatched closed loop.

Drives the real multi-threaded serving frontend (not the stream
simulator) with a closed loop of concurrent clients over a stack-safe
test-scale model, in two arms:

* **unbatched** — ``batching=False``: every request is its own dispatch;
* **batched** — dynamic batching on: compatible queued requests execute
  as one concatenated stacked dispatch.

Latency percentiles come from the metrics registry's
``duet_request_latency_seconds`` histogram — the same numbers a scrape
would see — not from ad-hoc timers; throughput comes from the shared
closed-loop load generator.  Batching must win ≥ 1.5x at concurrency 8:
one NumPy kernel invocation per op for the whole batch amortizes the
per-request dispatch overhead that dominates at test scale.
"""

from conftest import emit

from repro.bench import (
    Client,
    Scoreboard,
    elementwise_chain,
    format_table,
    run_closed_loop,
)
from repro.core import DuetEngine
from repro.ir import make_inputs
from repro.serving import ServingConfig

N_REQUESTS = 400
CONCURRENCY = 8
MIN_SPEEDUP = 1.5


def _serve_arm(engine, opt, feeds, *, batching, n_requests, concurrency):
    """One closed-loop arm; returns (Scoreboard, latency-histogram snapshot)."""
    config = ServingConfig(
        queue_capacity=max(64, 2 * concurrency),
        batching=batching,
        max_batch_size=concurrency,
        max_linger_s=2e-3,
        pool_size=1,
    )
    load = Scoreboard()
    with engine.serve(opt, config=config) as frontend:
        frontend.request(feeds)  # warm-up: weights + arena, paid once
        run = run_closed_loop(
            lambda i, client: frontend.submit(feeds),
            [Client()] * concurrency,
            lambda i, client: load,
            n_requests=n_requests,
        )
        load.duration_s = run.wall_time_s
        hist = frontend.registry.histogram(
            "duet_request_latency_seconds"
        ).snapshot(model="default")
    return load, hist


def _run(n_requests=N_REQUESTS, concurrency=CONCURRENCY):
    engine = DuetEngine()
    graph = elementwise_chain(batch=4, width=64, depth=6)
    opt = engine.optimize(graph)
    feeds = make_inputs(graph, seed=0)
    rows = []
    results = {}
    for arm, batching in (("unbatched", False), ("batched", True)):
        load, hist = _serve_arm(
            engine,
            opt,
            feeds,
            batching=batching,
            n_requests=n_requests,
            concurrency=concurrency,
        )
        results[arm] = load
        rows.append(
            {
                "arm": arm,
                "throughput_rps": load.throughput_rps,
                "p50_ms": hist.quantile(0.50) * 1e3,
                "p95_ms": hist.quantile(0.95) * 1e3,
                "p99_ms": hist.quantile(0.99) * 1e3,
                "errors": load.submitted - load.counts["ok"],
            }
        )
    return rows, results


def test_serving_batched_throughput(benchmark):
    rows, results = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit(
        format_table(
            rows,
            title=(
                f"Serving load — {N_REQUESTS} requests, "
                f"{CONCURRENCY} closed-loop clients"
            ),
        )
    )
    for arm, load in results.items():
        assert load.counts["error"] == 0, (arm, load)
        assert load.counts["ok"] == N_REQUESTS, (arm, load)
    speedup = (
        results["batched"].throughput_rps / results["unbatched"].throughput_rps
    )
    emit(f"batched/unbatched speedup: {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP, speedup
