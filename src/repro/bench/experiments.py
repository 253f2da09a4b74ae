"""Experiment drivers: one function per table/figure of the paper's §VI.

Each function returns plain row dictionaries so the pytest benchmarks, the
examples, and EXPERIMENTS.md generation all share one implementation.
Latencies are reported in milliseconds, matching the paper's figures.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.baselines import TVMLikeBaseline, pytorch_like, tensorflow_like
from repro.bench.ablations import (
    ablation_correction,
    ablation_granularity,
    ablation_profiling,
)
from repro.bench.workloads import (
    BATCH_SIZE_SWEEP,
    CNN_DEPTH_SWEEP,
    EVAL_MODELS,
    FFN_DEPTH_SWEEP,
    RNN_LAYER_SWEEP,
    table1_rows,
)
from repro.core import DuetEngine
from repro.core.partition import partition_graph
from repro.core.profiler import CompilerAwareProfiler
from repro.core.scheduler import (
    GreedyCorrectionScheduler,
    LatencyOracle,
    correct_placement,
)
from repro.core.schedulers import (
    exhaustive_placement,
    random_placement,
    round_robin_placement,
)
from repro.devices.machine import Machine, default_machine
from repro.models import WideDeepConfig, build_model
from repro.runtime.simulator import simulate

__all__ = [
    "EXPERIMENTS",
    "fig04_timeline",
    "fig05_comm",
    "fig11_end2end",
    "table2_breakdown",
    "fig12_tail",
    "fig13_schedulers",
    "fig14_rnn_layers",
    "fig15_cnn_depth",
    "fig16_ffn_depth",
    "fig17_batch_size",
    "table3_resnet",
]

_MS = 1e3


def _engine(machine: Machine | None) -> DuetEngine:
    return DuetEngine(machine=machine or default_machine(noisy=False))


# ---------------------------------------------------------------------------
# Fig. 4 — execution timeline of Wide&Deep on GPU vs CPU
# ---------------------------------------------------------------------------


def fig04_timeline(machine: Machine | None = None) -> dict[str, list[dict]]:
    """Per-kernel execution timeline of TVM-style single-device runs.

    Returns segments per device: the GPU timeline shows the RNN dominating,
    the CPU timeline shows the CNN dominating — the paper's motivation for
    co-execution.
    """
    machine = machine or default_machine(noisy=False)
    graph = build_model("wide_deep")
    out: dict[str, list[dict]] = {}
    for dev in ("cpu", "gpu"):
        baseline = TVMLikeBaseline(dev, machine)
        result = baseline.run(baseline.compile(graph))
        segments = []
        for rec in result.tasks[0].kernels:
            segments.append(
                {
                    "kernel": rec.name,
                    "start_ms": rec.start * _MS,
                    "end_ms": rec.finish * _MS,
                    "duration_ms": rec.duration * _MS,
                }
            )
        out[dev] = segments
    return out


# ---------------------------------------------------------------------------
# Fig. 5 — CPU<->GPU communication cost vs message size
# ---------------------------------------------------------------------------


def fig05_comm(
    machine: Machine | None = None,
    sizes: Sequence[int] | None = None,
) -> list[dict]:
    """Bulk-transfer latency and effective bandwidth per message size."""
    machine = machine or default_machine(noisy=False)
    link = machine.link("cpu", "gpu")
    if sizes is None:
        sizes = [2**k for k in range(10, 29)]  # 1 KiB .. 256 MiB
    rows = []
    for size in sizes:
        t = link.transfer_time(size)
        rows.append(
            {
                "bytes": size,
                "latency_ms": t * _MS,
                "bandwidth_gbps": link.bandwidth_at(size) / 1e9,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 11 — end-to-end latency across frameworks
# ---------------------------------------------------------------------------


def fig11_end2end(
    machine: Machine | None = None,
    models: Sequence[str] = EVAL_MODELS,
) -> list[dict]:
    """Mean latency of PyTorch/TF/TVM (CPU+GPU) and DUET per model."""
    machine = machine or default_machine(noisy=False)
    engine = _engine(machine)
    rows = []
    for name in models:
        graph = build_model(name)
        opt = engine.optimize(graph)
        systems = {
            "PyTorch-CPU": pytorch_like("cpu", machine).latency(graph),
            "PyTorch-GPU": pytorch_like("gpu", machine).latency(graph),
            "TensorFlow-CPU": tensorflow_like("cpu", machine).latency(graph),
            "TensorFlow-GPU": tensorflow_like("gpu", machine).latency(graph),
            "TVM-CPU": opt.single_device_latency["cpu"],
            "TVM-GPU": opt.single_device_latency["gpu"],
            "DUET": opt.latency,
        }
        for system, latency in systems.items():
            rows.append(
                {
                    "model": name,
                    "system": system,
                    "latency_ms": latency * _MS,
                    "speedup_vs_duet": latency / opt.latency,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table II — per-subgraph cost breakdown and placement decisions
# ---------------------------------------------------------------------------


def table2_breakdown(
    machine: Machine | None = None,
    models: Sequence[str] = EVAL_MODELS,
) -> list[dict]:
    """Profiled CPU/GPU cost and final device of every subgraph."""
    machine = machine or default_machine(noisy=False)
    engine = _engine(machine)
    rows = []
    for name in models:
        opt = engine.optimize(build_model(name))
        for sg in opt.partition.subgraphs:
            prof = opt.profiles[sg.id]
            rows.append(
                {
                    "model": name,
                    "subgraph": sg.id,
                    "ops": len(sg.node_ids),
                    "cpu_ms": prof.time_on("cpu") * _MS,
                    "gpu_ms": prof.time_on("gpu") * _MS,
                    "placement": opt.placement[sg.id],
                    "bytes_out": prof.bytes_out,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 12 — tail latency (P50/P99/P99.9), TVM-GPU vs DUET
# ---------------------------------------------------------------------------


def fig12_tail(
    machine: Machine | None = None,
    models: Sequence[str] = EVAL_MODELS,
    n_runs: int = 5000,
) -> list[dict]:
    """Sampled percentile latencies of TVM-GPU and DUET (noisy machine)."""
    machine = machine or default_machine(noisy=True)
    engine = DuetEngine(machine=machine)
    rows = []
    for name in models:
        graph = build_model(name)
        opt = engine.optimize(graph)
        duet_stats = engine.latency_stats(opt, n_runs=n_runs)
        gpu_stats = TVMLikeBaseline("gpu", machine).latency_stats(
            graph, n_runs=n_runs
        )
        for system, stats in (("TVM-GPU", gpu_stats), ("DUET", duet_stats)):
            rows.append(
                {
                    "model": name,
                    "system": system,
                    "p50_ms": stats.p50_ms,
                    "p99_ms": stats.p99_ms,
                    "p999_ms": stats.p999_ms,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 — scheduling algorithm comparison
# ---------------------------------------------------------------------------


def fig13_schedulers(
    machine: Machine | None = None,
    model: str = "wide_deep",
    n_random: int = 20,
    seed: int = 0,
) -> list[dict]:
    """Latency of Random / Round-Robin / Random+Corr / Greedy+Corr / Ideal."""
    machine = machine or default_machine(noisy=False)
    graph = build_model(model)
    partition = partition_graph(graph)
    profiler = CompilerAwareProfiler(machine=machine)
    profiles = profiler.profile_partition(partition)
    scheduler = GreedyCorrectionScheduler(machine=machine)
    rng = np.random.default_rng(seed)

    # One memoized oracle serves every scheme: placements revisited across
    # the random draws, the correction loop, and the greedy run cost one
    # simulation total.
    measure = LatencyOracle(graph, partition, profiles, machine)

    # Random: average over draws (a single draw is arbitrary).
    random_lat = float(
        np.mean(
            [measure(random_placement(partition, rng)) for _ in range(n_random)]
        )
    )
    rr_lat = measure(round_robin_placement(partition))

    rand_init = random_placement(partition, np.random.default_rng(seed + 1))
    corrected, _, _ = correct_placement(dict(rand_init), partition, measure)
    rand_corr_lat = measure(corrected)

    greedy = scheduler.schedule(graph, partition, profiles, oracle=measure)
    ideal_placement, ideal_lat = exhaustive_placement(
        graph, partition, profiles, machine
    )
    return [
        {"scheme": "Random", "latency_ms": random_lat * _MS},
        {"scheme": "Round-Robin", "latency_ms": rr_lat * _MS},
        {"scheme": "Random+Correction", "latency_ms": rand_corr_lat * _MS},
        {"scheme": "Greedy+Correction", "latency_ms": greedy.latency * _MS},
        {"scheme": "Ideal", "latency_ms": ideal_lat * _MS},
    ]


# ---------------------------------------------------------------------------
# Figs. 14-17 — model variations
# ---------------------------------------------------------------------------


def _sweep_wide_deep(
    machine: Machine, configs: Mapping[object, WideDeepConfig]
) -> list[dict]:
    engine = _engine(machine)
    rows = []
    for x, cfg in configs.items():
        opt = engine.optimize(build_model("wide_deep", config=cfg))
        rows.append(
            {
                "x": x,
                "tvm_cpu_ms": opt.single_device_latency["cpu"] * _MS,
                "tvm_gpu_ms": opt.single_device_latency["gpu"] * _MS,
                "duet_ms": opt.latency * _MS,
                "speedup_vs_gpu": opt.single_device_latency["gpu"] / opt.latency,
                "speedup_vs_cpu": opt.single_device_latency["cpu"] / opt.latency,
                "fallback": opt.fallback_device,
            }
        )
    return rows


def fig14_rnn_layers(
    machine: Machine | None = None,
    layers: Sequence[int] = RNN_LAYER_SWEEP,
) -> list[dict]:
    """Vary the stacked-LSTM depth of Wide&Deep (1/2/4/8)."""
    machine = machine or default_machine(noisy=False)
    cfgs = {n: WideDeepConfig().with_rnn_layers(n) for n in layers}
    return _sweep_wide_deep(machine, cfgs)


def fig15_cnn_depth(
    machine: Machine | None = None,
    depths: Sequence[int] = CNN_DEPTH_SWEEP,
) -> list[dict]:
    """Vary the ResNet encoder depth of Wide&Deep (18/34/50/101)."""
    machine = machine or default_machine(noisy=False)
    cfgs = {d: WideDeepConfig().with_cnn_depth(d) for d in depths}
    return _sweep_wide_deep(machine, cfgs)


def fig16_ffn_depth(
    machine: Machine | None = None,
    depths: Sequence[int] = FFN_DEPTH_SWEEP,
) -> list[dict]:
    """Vary the FFN hidden-layer count of Wide&Deep."""
    machine = machine or default_machine(noisy=False)
    cfgs = {n: WideDeepConfig().with_ffn_layers(n) for n in depths}
    return _sweep_wide_deep(machine, cfgs)


def fig17_batch_size(
    machine: Machine | None = None,
    batches: Sequence[int] = BATCH_SIZE_SWEEP,
) -> list[dict]:
    """Vary the frozen batch size of Wide&Deep (2..32)."""
    machine = machine or default_machine(noisy=False)
    cfgs = {b: WideDeepConfig().with_batch(b) for b in batches}
    return _sweep_wide_deep(machine, cfgs)


# ---------------------------------------------------------------------------
# Table III — traditional sequential model (ResNet) and the fallback
# ---------------------------------------------------------------------------


def table3_resnet(
    machine: Machine | None = None,
    models: Sequence[str] = ("resnet", "vgg", "squeezenet", "mobilenet"),
) -> list[dict]:
    """End-to-end latency on traditional sequential models.

    The paper evaluates ResNet; VGG and SqueezeNet (both name-checked in
    §III-A as models Operators-in-Sequence already serves well) extend the
    fallback check — SqueezeNet's fire modules even contain real branch
    parallelism, but both branches prefer the GPU, so DUET still falls
    back.
    """
    machine = machine or default_machine(noisy=False)
    engine = _engine(machine)
    rows = []
    for name in models:
        graph = build_model(name)
        opt = engine.optimize(graph)
        systems = {
            "PyTorch-CPU": pytorch_like("cpu", machine).latency(graph),
            "PyTorch-GPU": pytorch_like("gpu", machine).latency(graph),
            "TVM-CPU": opt.single_device_latency["cpu"],
            "TVM-GPU": opt.single_device_latency["gpu"],
            "DUET": opt.latency,
        }
        for system, latency in systems.items():
            rows.append(
                {
                    "model": name,
                    "system": system,
                    "latency_ms": latency * _MS,
                    "fallback": opt.fallback_device if system == "DUET" else "",
                }
            )
    return rows


#: Every experiment that yields table rows, by the name ``repro bench``
#: and ``repro report`` know it under.  Each callable runs with no
#: arguments on the machine its experiment calls for (the tail-latency
#: one on the noisy machine, the rest noise-free); one that samples a
#: latency distribution also takes ``n_runs``.
EXPERIMENTS: dict[str, Callable[..., list[dict]]] = {
    "table1": table1_rows,
    "fig5": fig05_comm,
    "fig11": fig11_end2end,
    "table2": table2_breakdown,
    "fig12": fig12_tail,
    "fig13": fig13_schedulers,
    "fig14": fig14_rnn_layers,
    "fig15": fig15_cnn_depth,
    "fig16": fig16_ffn_depth,
    "fig17": fig17_batch_size,
    "table3": table3_resnet,
    "ablation-profiling": ablation_profiling,
    "ablation-granularity": ablation_granularity,
    "ablation-correction": ablation_correction,
}
