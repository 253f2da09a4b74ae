"""Benchmark harness: experiment drivers, workloads, and reporting."""

from repro.bench.ablations import (
    ablation_correction,
    ablation_granularity,
    ablation_profiling,
    build_comm_heavy_model,
    build_fusion_sensitive_model,
)
from repro.bench.chaos import (
    ChaosPhase,
    ChaosReport,
    default_chaos_schedule,
    run_chaos_serve,
)
from repro.bench.experiments import (
    fig04_timeline,
    fig05_comm,
    fig11_end2end,
    fig12_tail,
    fig13_schedulers,
    fig14_rnn_layers,
    fig15_cnn_depth,
    fig16_ffn_depth,
    fig17_batch_size,
    table2_breakdown,
    table3_resnet,
)
from repro.bench.loadgen import (
    Client,
    Scoreboard,
    elementwise_chain,
    run_closed_loop,
)
from repro.bench.native import (
    SCOREBOARD_MODELS,
    native_scoreboard,
)
from repro.bench.mesh import (
    MESH_DEVICE_COUNTS,
    MESH_MODELS,
    best_scaling_model,
    mesh_for,
    run_mesh_scaling,
)
from repro.bench.reporting import (
    format_bars,
    format_hetero_timeline,
    format_table,
    format_timeline,
)
from repro.bench.slo import (
    SLOReport,
    run_slo_mix,
)
from repro.bench.tournament import (
    LEAGUE_COLUMNS,
    TINY_TOURNAMENT_MODELS,
    TOURNAMENT_MODELS,
    build_tournament_model,
    build_xfer_bound_model,
    run_tournament,
    tournament_winner,
)
from repro.bench.workloads import (
    BATCH_SIZE_SWEEP,
    CNN_DEPTH_SWEEP,
    EVAL_MODELS,
    FFN_DEPTH_SWEEP,
    RNN_LAYER_SWEEP,
    Workload,
    evaluation_workloads,
    table1_rows,
)

__all__ = [
    "BATCH_SIZE_SWEEP",
    "ChaosPhase",
    "ChaosReport",
    "SLOReport",
    "default_chaos_schedule",
    "run_chaos_serve",
    "run_slo_mix",
    "MESH_DEVICE_COUNTS",
    "MESH_MODELS",
    "best_scaling_model",
    "mesh_for",
    "run_mesh_scaling",
    "LEAGUE_COLUMNS",
    "TINY_TOURNAMENT_MODELS",
    "TOURNAMENT_MODELS",
    "build_tournament_model",
    "build_xfer_bound_model",
    "run_tournament",
    "tournament_winner",
    "ablation_correction",
    "ablation_granularity",
    "ablation_profiling",
    "build_comm_heavy_model",
    "build_fusion_sensitive_model",
    "CNN_DEPTH_SWEEP",
    "EVAL_MODELS",
    "FFN_DEPTH_SWEEP",
    "RNN_LAYER_SWEEP",
    "SCOREBOARD_MODELS",
    "native_scoreboard",
    "Client",
    "Scoreboard",
    "Workload",
    "elementwise_chain",
    "evaluation_workloads",
    "run_closed_loop",
    "fig04_timeline",
    "fig05_comm",
    "fig11_end2end",
    "fig12_tail",
    "fig13_schedulers",
    "fig14_rnn_layers",
    "fig15_cnn_depth",
    "fig16_ffn_depth",
    "fig17_batch_size",
    "format_bars",
    "format_hetero_timeline",
    "format_table",
    "format_timeline",
    "table1_rows",
    "table2_breakdown",
    "table3_resnet",
]
