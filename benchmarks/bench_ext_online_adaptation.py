"""Extension: online re-scheduling under runtime interference.

The paper's correction step targets "unpredictable variations at run
time" but is applied once, offline.  This extension serves a request
stream through DUET while a co-tenant steals CPU capacity mid-stream
(4x slowdown from request 20): the adaptive engine detects the drift from
observed task durations, re-profiles under its updated machine belief,
and re-schedules — the static plan keeps paying contended-CPU prices.
"""

from conftest import emit

from repro.bench import format_table
from repro.core import AdaptiveDuetEngine, DuetEngine
from repro.devices import Machine, scale_device
from repro.models import build_model
from repro.runtime import simulate


def _run(machine):
    contended = Machine(
        devices=(scale_device(machine.device("cpu"), 4.0), machine.device("gpu")),
        links=machine.links,
    )
    graph = build_model("wide_deep")
    adaptive = AdaptiveDuetEngine(base_machine=machine, cooldown=5)
    adaptive.start(graph)
    static_plan = DuetEngine(machine=machine).optimize(graph).plan

    records = []
    for i in range(70):
        true = machine if i < 20 else contended
        rec = adaptive.serve_one(true)
        records.append(rec)

    def avg(lo, hi):
        xs = [r.latency for r in records[lo:hi]]
        return sum(xs) / len(xs) * 1e3

    return {
        "nominal_ms": avg(0, 20),
        "drifted_pre_adapt_ms": records[20].latency * 1e3,
        "drifted_post_adapt_ms": avg(50, 70),
        "static_under_drift_ms": simulate(static_plan, contended).latency * 1e3,
        "adaptations": adaptive.adaptations,
        "final_cpu_belief": adaptive.assumed_slowdown["cpu"],
    }


def test_ext_online_adaptation(benchmark, machine):
    row = benchmark.pedantic(_run, args=(machine,), rounds=1, iterations=1)
    emit(format_table([row], title="Extension — online adaptation (Wide&Deep, CPU x4 contention)"))

    assert row["adaptations"] >= 1
    # Adapted stream beats the static plan under the same contention.
    assert row["drifted_post_adapt_ms"] < row["static_under_drift_ms"] * 0.95
    # Belief lands near the injected 4x factor.
    assert 2.5 < row["final_cpu_belief"] < 6.0
