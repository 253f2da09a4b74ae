"""Command-line interface.

Examples::

    python -m repro list
    python -m repro info wide_deep
    python -m repro print siamese --tiny
    python -m repro optimize wide_deep --runs 2000
    python -m repro optimize wide_deep --backend native
    python -m repro bench fig13
    python -m repro serve mtdnn --tiny --requests 50
    python -m repro fuzz --seed 0 --count 50
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from collections import Counter
from typing import Callable, Sequence

from repro.bench import experiments, format_table
from repro.core import DuetEngine, PhaseType, partition_graph
from repro.devices import default_machine, load_mesh
from repro.errors import ReproError
from repro.ir import format_graph
from repro.models import MODEL_NAMES, build_model

__all__ = ["main"]

def _machine_from_args(args: argparse.Namespace):
    """The machine a command runs against: ``--mesh FILE`` when given
    (see ``examples/mesh.json``), else the default 2-device machine."""
    if args.mesh:
        return load_mesh(args.mesh)
    return default_machine(noisy=False)


def _cmd_list(args: argparse.Namespace) -> int:
    print("models:      " + ", ".join(MODEL_NAMES))
    print("experiments: " + ", ".join(experiments.EXPERIMENTS))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = build_model(args.model, tiny=args.tiny)
    print(f"model:   {graph.name}")
    print(f"ops:     {len(graph.op_nodes())}")
    print(f"params:  {graph.num_params() / 1e6:.2f} M")
    print(f"flops:   {graph.total_flops() / 1e9:.3f} G")
    part = partition_graph(graph)
    print(f"phases:  {len(part.phases)} ({len(part.subgraphs)} subgraphs)")
    for phase in part.phases:
        kind = "seq  " if phase.type is PhaseType.SEQUENTIAL else "multi"
        sizes = ", ".join(str(len(sg.node_ids)) for sg in phase.subgraphs)
        print(f"  phase {phase.index:2d} [{kind}] op counts: {sizes}")
    return 0


def _cmd_print(args: argparse.Namespace) -> int:
    graph = build_model(args.model, tiny=args.tiny)
    print(format_graph(graph))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    machine = default_machine(noisy=args.noisy)
    engine = DuetEngine(machine=machine, backend=args.backend)
    if args.spec:
        from pathlib import Path

        from repro.ir import build_from_json

        graph = build_from_json(Path(args.spec).read_text())
    elif args.model:
        graph = build_model(args.model, tiny=args.tiny)
    else:
        print("error: provide a model name or --spec PATH", file=sys.stderr)
        return 2
    opt = engine.optimize(graph, profile_path=args.profile_cache)

    rows = []
    for sg in opt.partition.subgraphs:
        prof = opt.profiles[sg.id]
        rows.append(
            {
                "subgraph": sg.id,
                "ops": len(sg.node_ids),
                "cpu_ms": prof.time_on("cpu") * 1e3,
                "gpu_ms": prof.time_on("gpu") * 1e3,
                "device": opt.placement[sg.id],
            }
        )
    print(format_table(rows, title=f"{graph.name}: profile and placement"))
    print()
    print(f"DUET latency:     {opt.latency * 1e3:.3f} ms")
    print(f"TVM-CPU latency:  {opt.single_device_latency['cpu'] * 1e3:.3f} ms")
    print(f"TVM-GPU latency:  {opt.single_device_latency['gpu'] * 1e3:.3f} ms")
    print(f"fallback:         {opt.fallback_device or 'none (co-execution)'}")
    mem = opt.memory_report()
    print(
        "resident weights: "
        + ", ".join(
            f"{dev} {m.param_bytes / 1e6:.1f} MB"
            for dev, m in sorted(mem.per_device.items())
        )
    )
    if args.backend == "native":
        reasons = Counter(
            k.reason for task in opt.plan.tasks for k in task.module.kernels
        )
        print(
            "kernel backends:  "
            + ", ".join(f"{n} {reason}" for reason, n in sorted(reasons.items()))
        )
    if args.runs > 0:
        stats = engine.latency_stats(opt, n_runs=args.runs)
        print(
            f"distribution ({args.runs} runs): P50 {stats.p50_ms:.3f}  "
            f"P99 {stats.p99_ms:.3f}  P99.9 {stats.p999_ms:.3f} ms"
        )
    if args.session_runs > 0:
        from repro.ir import make_inputs

        feeds = make_inputs(graph)
        session = engine.session(opt)
        session.run(feeds)  # warm-up: weights + arena, paid once
        results = session.run_many([feeds] * args.session_runs)
        per_request = sum(r.wall_time_s for r in results) / len(results)
        print(
            f"session serving ({args.session_runs} requests): "
            f"{per_request * 1e3:.3f} ms/request, "
            f"arena {session.arena.buffer_count} buffers "
            f"({session.arena.allocations} allocations total)"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every experiment table into a results directory."""
    import pathlib

    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, fn in experiments.EXPERIMENTS.items():
        # An experiment that samples a latency distribution says so by
        # taking ``n_runs``; ``--runs`` sizes the sample.
        sampled = "n_runs" in inspect.signature(fn).parameters
        rows = fn(n_runs=args.runs) if sampled else fn()
        text = format_table(rows, title=name)
        (out_dir / f"{name}.txt").write_text(text + "\n")
        print(f"wrote {out_dir / (name + '.txt')}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    fn = experiments.EXPERIMENTS.get(args.experiment)
    if fn is None:
        print(
            f"unknown experiment {args.experiment!r}; options: "
            + ", ".join(experiments.EXPERIMENTS),
            file=sys.stderr,
        )
        return 2
    print(format_table(fn(), title=args.experiment))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Smoke the serving frontend: ``--requests`` requests, one after
    another, then throughput and latency percentiles from its metrics."""
    import time

    from repro.ir import make_inputs
    from repro.serving import ServingConfig, TenantRegistry

    graph = build_model(args.model, tiny=args.tiny)
    tenants = TenantRegistry.from_file(args.tenants) if args.tenants else None
    names = tenants.names if tenants else (None,)
    engine = DuetEngine(machine=_machine_from_args(args), backend=args.backend)
    feeds = make_inputs(graph)
    with engine.serve(graph, config=ServingConfig(tenants=tenants)) as frontend:
        began = time.perf_counter()
        for i in range(args.requests):
            frontend.request(feeds, tenant=names[i % len(names)])
        elapsed = time.perf_counter() - began
        hist = frontend.registry.histogram(
            "duet_request_latency_seconds"
        ).merged()
        batches = frontend.registry.counter("duet_batches_total").total()
        print(
            f"{args.requests} requests to {graph.name}: "
            f"{args.requests / elapsed:.0f} req/s"
        )
        quantiles = {q: hist.quantile_estimate(q) for q in (0.5, 0.95, 0.99)}
        print(
            "latency "
            + "  ".join(
                f"p{int(q * 100)} {value * 1e3:.3f} ms"
                + (" (>= clamped)" if overflowed else "")
                for q, (value, overflowed) in quantiles.items()
            )
        )
        print(f"batches executed: {batches:.0f}")
        if args.metrics:
            print()
            print(frontend.render_metrics(), end="")
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    """League table: every scheduling policy x every model, both transfer
    disciplines."""
    from repro.bench import (
        LEAGUE_COLUMNS,
        TOURNAMENT_MODELS,
        run_tournament,
        tournament_winner,
    )

    rows = run_tournament(
        models=tuple(args.models) if args.models else TOURNAMENT_MODELS,
        policies=tuple(args.policies) if args.policies else None,
        machine=_machine_from_args(args),
        seed=args.seed,
        tiny=args.tiny,
    )
    winners = {
        "lazy": tournament_winner(rows),
        "overlapped": tournament_winner(rows, column="overlap_ms"),
    }
    for r in rows:
        if r["note"]:
            print(
                f"forfeit: {r['policy']} on {r['model']}: {r['note']}",
                file=sys.stderr,
            )
    table = format_table(
        rows,
        title="Scheduler tournament (lazy vs. overlapped transfers)",
        columns=LEAGUE_COLUMNS,
    )
    text = (
        f"{table}\nleague winners — lazy: {winners['lazy']}, "
        f"overlapped: {winners['overlapped']}"
    )
    print(text)
    if args.output:
        if args.output.endswith(".json"):
            text = json.dumps({"rows": rows, "winners": winners}, indent=2)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.output}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: random graphs through every execution path."""
    from repro.testing import GeneratorConfig, run_campaign

    config = GeneratorConfig(max_ops=args.max_ops)
    machine = default_machine(noisy=False)

    def progress(case, diff):
        if args.verbose or not diff.ok:
            ops = len(case.graph.pruned().op_nodes())
            status = "ok" if diff.ok else "FAIL"
            print(f"  case {case.index:4d} ({ops:3d} ops): {status}")

    backend = args.backend
    if backend == "native":
        from repro.compiler.native import native_available

        if not native_available():
            print(
                "warning: no C compiler found — native kernels fall back "
                "to NumPy (the native oracle arms are marked skipped)",
                file=sys.stderr,
            )

    report = run_campaign(
        args.seed,
        args.count,
        config=config,
        machine=machine,
        minimize=not args.no_minimize,
        artifact_dir=args.artifact_dir,
        time_budget_s=args.time_budget,
        progress=progress,
        backend=backend,
    )
    print(report.summary())
    for failure in report.failures:
        print(failure.describe())
    if report.failures:
        print(
            "\nreproduce with: python -m repro fuzz "
            f"--seed {args.seed} --count {args.count}"
            + (f" --backend {backend}" if backend != "numpy" else "")
        )
        return 1
    return 0


def _arg(flag: str, **spec) -> tuple[str, dict]:
    """One command-line argument: the flag (or positional) and its spec."""
    return flag, spec


def _but(arg: tuple[str, dict], **overrides) -> tuple[str, dict]:
    """A shared argument with part of its spec replaced for one command."""
    return arg[0], {**arg[1], **overrides}


# Arguments more than one command takes, each specified once.
_MODEL = _arg("model", choices=MODEL_NAMES, help="zoo model")
_TINY = _arg("--tiny", action="store_true", help="test-scale configuration")
_MESH = _arg(
    "--mesh", default=None, metavar="FILE",
    help="run on an N-device mesh loaded from a topology JSON file (see "
    "examples/mesh.json) instead of the default CPU+GPU machine",
)
_SEED = _arg("--seed", type=int, default=0, help="random seed")
_OUTPUT = _arg(
    "--output", default=None, metavar="FILE",
    help="also write the report to FILE (as JSON when it ends in .json)",
)
_BACKEND = _arg(
    "--backend", choices=("numpy", "native"), default="numpy",
    help="kernel backend: NumPy closures, or native = each fused kernel in "
    "rendered C (compiled into the .so cache) where that measures faster",
)

#: name -> (handler, help, arguments): the whole command-line surface.
_COMMANDS: dict[str, tuple[Callable, str, tuple[tuple[str, dict], ...]]] = {
    "list": (_cmd_list, "list models and experiments", ()),
    "info": (_cmd_info, "model and partition statistics", (_MODEL, _TINY)),
    "print": (_cmd_print, "dump the Relay-style IR", (_MODEL, _TINY)),
    "optimize": (_cmd_optimize, "run the full DUET pipeline", (
        _but(_MODEL, nargs="?"),
        _arg(
            "--spec", default=None, metavar="PATH",
            help="optimize a declarative JSON model spec instead of a zoo model",
        ),
        _TINY,
        _arg("--noisy", action="store_true", help="enable latency noise"),
        _arg(
            "--runs", type=int, default=0,
            help="additionally sample a latency distribution of this many runs",
        ),
        _arg(
            "--session-runs", type=int, default=0, metavar="N",
            help="serve N requests through a reusable engine session and "
            "report the measured per-request wall time",
        ),
        _arg(
            "--profile-cache", default=None, metavar="PATH",
            help="reuse/write the offline profiling artifact at PATH",
        ),
        _BACKEND,
    )),
    "bench": (_cmd_bench, "run one paper experiment", (_arg("experiment"),)),
    "report": (
        _cmd_report, "regenerate every experiment table into a directory", (
            _but(_OUTPUT, default="results", metavar="DIR", help="target directory"),
            _arg(
                "--runs", type=int, default=2000,
                help="sample count for the tail-latency experiment",
            ),
        ),
    ),
    "serve": (
        _cmd_serve,
        "send requests one after another through the serving frontend", (
            _but(_MODEL, help="zoo model to serve"),
            _TINY,
            _arg(
                "--requests", type=int, default=200, metavar="N",
                help="number of requests to serve",
            ),
            _BACKEND,
            _MESH,
            _arg(
                "--tenants", default=None, metavar="FILE",
                help="tenants JSON file (see examples/tenants.json); requests "
                "go round-robin across the registered tenants",
            ),
            _arg(
                "--metrics", action="store_true",
                help="also print the Prometheus-style metrics exposition",
            ),
        ),
    ),
    "tournament": (
        _cmd_tournament,
        "scheduler league: every policy x model, lazy vs. overlap", (
            _arg(
                "--models", nargs="+", default=None, metavar="NAME",
                help="tournament models (zoo names plus 'xfer_bound'; default league)",
            ),
            _arg(
                "--policies", nargs="+", default=None, metavar="POLICY",
                help="scheduling policies to enter (default: all registered)",
            ),
            _MESH,
            _but(_SEED, help="seed for stochastic policies"),
            _TINY,
            _OUTPUT,
        ),
    ),
    "fuzz": (
        _cmd_fuzz,
        "differential conformance fuzzing across all execution paths", (
            _but(_SEED, help="campaign seed (case i depends only on (seed, i))"),
            _arg("--count", type=int, default=50, help="number of cases"),
            _arg(
                "--max-ops", type=int, default=24,
                help="target operator-count ceiling",
            ),
            _arg(
                "--artifact-dir", default=None, metavar="DIR",
                help="write minimized JSON repro artifacts for failures here",
            ),
            _arg(
                "--no-minimize", action="store_true",
                help="skip shrinking failing graphs",
            ),
            _arg(
                "--time-budget", type=float, default=None, metavar="SECONDS",
                help="stop starting new cases after this much wall time",
            ),
            _arg(
                "--verbose", action="store_true",
                help="print every case, not just failures",
            ),
            _but(
                _BACKEND,
                help="kernel backend for every compiled oracle arm (native = "
                "rendered C for every group the renderer accepts, under the "
                "ULP comparison policy)",
            ),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DUET reproduction: schedule DNN inference across CPU+GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=run)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
