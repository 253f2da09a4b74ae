"""Extension: serving throughput under a closed-loop request stream.

The paper optimizes single-request latency; a serving deployment also
gains *throughput* from DUET because consecutive requests pipeline across
the two devices (request r's RNN on CPU overlaps request r+1's CNN on
GPU).  Measured: requests/second over a 100-request burst for each
system.
"""

from conftest import emit

from repro.bench import format_table
from repro.core import DuetEngine
from repro.models import build_model
from repro.runtime import simulate_stream
from repro.runtime.plan import single_device_plan

N_REQUESTS = 100


def _run(machine):
    engine = DuetEngine(machine=machine)
    rows = []
    for name in ("wide_deep", "siamese", "mtdnn"):
        graph = build_model(name)
        opt = engine.optimize(graph)
        plans = {
            "TVM-CPU": single_device_plan(engine.compiler.compile_cpu(graph), "cpu"),
            "TVM-GPU": single_device_plan(engine.compiler.compile_gpu(graph), "gpu"),
            "DUET": opt.plan,
        }
        for system, plan in plans.items():
            stream = simulate_stream(plan, machine, n_requests=N_REQUESTS)
            rows.append(
                {
                    "model": name,
                    "system": system,
                    "throughput_rps": stream.throughput,
                    "mean_latency_ms": stream.mean_latency * 1e3,
                }
            )
    return rows


def test_ext_pipelined_throughput(benchmark, machine):
    rows = benchmark.pedantic(_run, args=(machine,), rounds=1, iterations=1)
    emit(
        format_table(
            rows, title=f"Extension — throughput over {N_REQUESTS}-request burst"
        )
    )

    for model in {r["model"] for r in rows}:
        tp = {
            r["system"]: r["throughput_rps"]
            for r in rows
            if r["model"] == model
        }
        # Pipelining across devices outruns either device alone.
        assert tp["DUET"] > max(tp["TVM-CPU"], tp["TVM-GPU"]), model
