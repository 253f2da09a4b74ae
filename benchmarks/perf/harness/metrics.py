"""The benchmark's metric names and units — what ``run.py`` prints.

``BENCHMARK.json`` at the repo root lists the same names with their
direction and bound; ``tests/test_perf_contract.py`` keeps the two equal.
"""

from __future__ import annotations

__all__ = ["RUN_SECONDS", "END_TO_END", "PER_LAYER", "OPEN_STEPS", "pack"]

#: Length of one measured phase; ``BENCHMARK.json``'s ``run_seconds``.
RUN_SECONDS = 6

#: Offered rates of the open-loop steps, requests per second.
OPEN_STEPS = (1000, 2000, 3000, 4000)

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "slo_share": "share",
    "rss_peak_mb": "mb",
}

PER_LAYER: dict[str, str] = {
    # models / ir
    "models.build_ms": "ms",
    "ir.interpreter_ms": "ms",
    # compiler
    "compiler.compile_ms": "ms",
    "compiler.module_run_ms": "ms",
    "compiler.native.speedup_vs_numpy": "ratio",
    "compiler.native.compile_cold_ms": "ms",
    "compiler.native.compile_warm_ms": "ms",
    "compiler.kernels": "count",
    "compiler.native.kernel_share": "share",
    "compiler.native.cache_compiles": "count",
    "compiler.native.cache_hits": "count",
    "compiler.native.fallbacks": "count",
    # core
    "core.partition_ms": "ms",
    "core.profile_ms": "ms",
    "core.schedule_ms": "ms",
    "core.optimize_ms": "ms",
    "core.optimize_mesh4_ms": "ms",
    "core.policy.dp_ms": "ms",
    "core.policy.greedy_ms": "ms",
    "core.policy.heft_ms": "ms",
    "core.subgraphs": "count",
    "core.hetero_share": "share",
    "core.predicted_latency_ms": "ms",
    "core.virtual_speedup_vs_single": "ratio",
    # runtime
    "runtime.session_build_ms": "ms",
    "runtime.session_run_ms": "ms",
    "runtime.tasks": "count",
    "runtime.task_busy_ms": "ms",
    "runtime.dispatch_gap_us_per_task": "us",
    "runtime.threaded_run_ms": "ms",
    "runtime.threaded_over_inline": "ratio",
    "runtime.simulate_ms": "ms",
    "runtime.simulate_batch5000_ms": "ms",
    "runtime.arena_mb": "mb",
    # serving
    "serving.frontend_build_ms": "ms",
    "serving.submit_us": "us",
    "serving.queue_wait_ms": "ms",
    "serving.exec_wall_ms": "ms",
    "serving.overhead_ms": "ms",
    "serving.nobatch_request_ms": "ms",
    "serving.batch_size_mean": "count",
    "serving.stacked_share": "share",
    "serving.rejected": "count",
    "serving.shed": "count",
    "serving.expired": "count",
    **{
        f"serving.open.r{rate}.{stat}": unit
        for rate in OPEN_STEPS
        for stat, unit in (("p50_ms", "ms"), ("p99_ms", "ms"), ("failed_share", "share"))
    },
    "serving.max_rate_ok_rps": "1/s",
    "serving.gen_late_p99_ms": "ms",
    # process / harness
    "process.cpu_ms_per_op": "ms",
    "trace.overhead_share": "share",
    "failed_share": "share",
}


def pack(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly the names in ``units``."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise KeyError(f"metrics missing {missing}, unexpected {extra}")
    return {
        name: {"value": float(values[name]), "unit": units[name]} for name in units
    }
