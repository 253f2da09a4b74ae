"""Scheduler playground: watch greedy-correction work, step by step.

Reproduces the §VI-C comparison on the Siamese network and prints the
correction trace — which subgraphs moved between devices and how much
end-to-end latency each swap bought.

Run:  python examples/scheduler_playground.py
"""

from __future__ import annotations

import numpy as np

from repro.bench import format_table
from repro.core import (
    CompilerAwareProfiler,
    GreedyCorrectionScheduler,
    partition_graph,
)
from repro.core.placement import build_hetero_plan
from repro.core.schedulers import (
    exhaustive_placement,
    random_placement,
    round_robin_placement,
)
from repro.devices import default_machine
from repro.models import build_model
from repro.runtime import simulate


def main() -> None:
    machine = default_machine(noisy=False)
    graph = build_model("siamese")
    partition = partition_graph(graph)

    print(f"Model: {graph.name}")
    for phase in partition.phases:
        kind = phase.type.value
        members = ", ".join(
            f"{sg.id}({len(sg.node_ids)} ops)" for sg in phase.subgraphs
        )
        print(f"  phase {phase.index} [{kind}]: {members}")

    profiler = CompilerAwareProfiler(machine=machine, sample_runs=100)
    profiles = profiler.profile_partition(partition)
    rows = [
        {
            "subgraph": sid,
            "cpu_ms": p.time_on("cpu") * 1e3,
            "gpu_ms": p.time_on("gpu") * 1e3,
            "cpu_p99_ms": p.stats["cpu"].p99_ms,
            "out_KB": p.bytes_out / 1024,
        }
        for sid, p in profiles.items()
    ]
    print("\n" + format_table(rows, title="Compiler-aware profiles (100 sampled runs)"))

    def measure(placement):
        plan = build_hetero_plan(graph, partition, profiles, placement)
        return simulate(plan, machine).latency

    rng = np.random.default_rng(0)
    rand = random_placement(partition, rng)
    rr = round_robin_placement(partition)
    scheduler = GreedyCorrectionScheduler(machine=machine)
    greedy = scheduler.schedule(graph, partition, profiles)
    rand_corr = scheduler.schedule(graph, partition, profiles, initial=rand)
    _, ideal = exhaustive_placement(graph, partition, profiles, machine)

    comparison = [
        {"scheme": "Random", "latency_ms": measure(rand) * 1e3},
        {"scheme": "Round-Robin", "latency_ms": measure(rr) * 1e3},
        {"scheme": "Random+Correction", "latency_ms": rand_corr.latency * 1e3},
        {"scheme": "Greedy+Correction", "latency_ms": greedy.latency * 1e3},
        {"scheme": "Ideal (exhaustive)", "latency_ms": ideal * 1e3},
    ]
    print("\n" + format_table(comparison, title="Scheduling policies (Fig 13 style)"))

    print("\nCorrection trace starting from the random placement:")
    if not rand_corr.corrections:
        print("  (random start was already locally optimal)")
    for step in rand_corr.corrections:
        print(
            f"  phase {step.phase_index}: "
            f"{step.moved_forward or '-'} -> {step.pair[1]}, "
            f"{step.moved_backward or '-'} -> {step.pair[0]}   "
            f"{step.latency_before * 1e3:.3f} ms -> {step.latency_after * 1e3:.3f} ms"
        )
    print(
        f"\nGreedy init needed {len(greedy.corrections)} correction step(s) and "
        f"{greedy.measurements} latency measurements; random init needed "
        f"{len(rand_corr.corrections)} step(s) and {rand_corr.measurements}."
    )


if __name__ == "__main__":
    main()
