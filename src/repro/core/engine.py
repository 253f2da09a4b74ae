"""DuetEngine: the end-to-end inference engine (paper Fig. 6).

Pipeline: coarse-grained partitioning → compiler-aware profiling →
greedy-correction scheduling → heterogeneous execution, with an automatic
fallback to the best single device when co-execution does not win
(§VI-E, Table III).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.compiler.lowering import CompiledModule
from repro.compiler.pipeline import Compiler
from repro.core.partition import partition_graph
from repro.core.phases import PhasedPartition
from repro.core.profiler import CompilerAwareProfiler, SubgraphProfile
from repro.core.scheduler import GreedyCorrectionScheduler, ScheduleResult
from repro.devices.machine import Machine, default_machine
from repro.ir.graph import Graph
from repro.errors import ProfilingError
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.measurement import LatencyStats, measure_latency_batch
from repro.runtime.plan import HeteroPlan, single_device_plan
from repro.runtime.resilient import (
    ExecutionReport,
    ResilienceConfig,
    ResilientExecutor,
)
from repro.runtime.session import EngineSession
from repro.runtime.simulator import ExecutionResult, simulate, simulate_batch

__all__ = ["DuetOptimization", "DuetEngine"]


@dataclass
class DuetOptimization:
    """Everything the engine decided for one model.

    Attributes:
        graph: the input model.
        partition: its phased partition.
        profiles: per-subgraph compiler-aware profiles.
        schedule: the greedy-correction scheduling result.
        plan: the plan actually executed — the heterogeneous plan, or a
            single-device plan when the engine fell back.
        fallback_device: the single device used on fallback, else ``None``.
        latency: expected (mean) end-to-end latency of ``plan``.
        single_device_latency: mean latency of the best single device.
        degradation_plans: device -> standing single-device plan built
            from the whole-model modules the fallback comparison already
            compiles (§VI-E).  The resilient executor restarts on the
            survivor's plan when the other device is lost before any
            subgraph completed, and callers should serve follow-up
            requests from it after any failover.
    """

    graph: Graph
    partition: PhasedPartition
    profiles: dict[str, SubgraphProfile]
    schedule: ScheduleResult
    plan: HeteroPlan
    fallback_device: str | None
    latency: float
    single_device_latency: dict[str, float]
    degradation_plans: dict[str, HeteroPlan] = field(default_factory=dict)

    @property
    def used_fallback(self) -> bool:
        return self.fallback_device is not None

    @property
    def placement(self) -> dict[str, str]:
        return self.schedule.placement

    def memory_report(self):
        """Per-device memory footprint of the chosen plan."""
        from repro.runtime.memory import memory_report

        return memory_report(self.plan)


@dataclass
class DuetEngine:
    """The DUET inference engine.

    Typical use::

        engine = DuetEngine()
        opt = engine.optimize(graph)
        result = engine.run(opt, inputs)      # numeric outputs + timing
        stats = engine.latency_stats(opt)     # 5000-run distribution

    With ``validate=True`` (or ``REPRO_VALIDATE=1`` in the environment)
    every scheduling decision is checked against the structural
    invariants in :mod:`repro.testing.invariants` before it is returned;
    violations raise :class:`~repro.errors.InvariantViolation`.
    """

    machine: Machine = field(default_factory=default_machine)
    compiler: Compiler = field(default_factory=Compiler)
    profile_sample_runs: int = 0
    fallback_margin: float = 0.0  # require DUET to beat single-device by this fraction
    validate: bool | None = None  # None: honor the REPRO_VALIDATE env var
    # Schedule and price plans under the double-buffered transfer
    # discipline (cross-device copies overlap compute); numerics are
    # identical either way — only the cost model and virtual clock change.
    overlap: bool = False
    # Kernel backend shorthand: DuetEngine(backend="native") lowers every
    # module (plan subgraphs, single-device fallbacks, serving sessions)
    # through the C renderer + .so cache, each kernel in rendered C where
    # that measured faster than its NumPy closure.  None keeps whatever
    # the supplied compiler says.
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend != self.compiler.backend:
            import dataclasses

            self.compiler = dataclasses.replace(self.compiler, backend=self.backend)

    def _should_validate(self) -> bool:
        if self.validate is not None:
            return self.validate
        import os

        return os.environ.get("REPRO_VALIDATE", "").strip() not in ("", "0")

    def _debug_validate(self, graph, partition, schedule) -> None:
        """Debug-flag invariant validation of a fresh scheduling decision.

        Raises :class:`~repro.errors.InvariantViolation` listing every
        broken invariant.  Imported lazily: :mod:`repro.testing` depends
        on :mod:`repro.core`, not the other way around.
        """
        from repro.testing.invariants import assert_valid, validate_schedule

        assert_valid(
            validate_schedule(
                graph, partition, schedule.placement, schedule.plan,
                devices=self.machine.device_names, host=self.machine.host,
            )
        )

    def _single_device_modules(self, graph: Graph) -> dict[str, CompiledModule]:
        """One whole-model module per mesh device, in machine order.

        Each device compiles for its spec's kind-appropriate target; on
        the default machine this is exactly the historical
        ``{"cpu": ..., "gpu": ...}`` pair.
        """
        from repro.core.profiler import device_target

        return {
            device.name: self.compiler.compile(graph, device_target(device))
            for device in self.machine.devices
        }

    def optimize(
        self, graph: Graph, profile_path: str | None = None
    ) -> DuetOptimization:
        """Partition, profile, schedule, and pick hetero vs. fallback.

        Args:
            graph: the model.
            profile_path: optional path to the offline profiling artifact
                (§IV-B one-time cost).  When the file exists and matches
                the partition, its timings are reused; otherwise the model
                is profiled and the artifact is (re)written.  Only
                artifact problems (:class:`ProfilingError`: unreadable
                file, fingerprint mismatch, malformed payload) trigger
                re-profiling — any other exception is a genuine bug and
                propagates.
        """
        from repro.core.profile_store import load_profiles, save_profiles

        partition = partition_graph(graph)
        # Whole-model modules first: they are needed whatever the schedule
        # turns out to be, and on a native backend their lowering sees
        # every fusion group of the model at once, so the cold compiles
        # run as one concurrent batch and the profiler's per-subgraph
        # compiles below find their objects in the cache.
        single_modules = self._single_device_modules(graph)
        profiles = None
        if profile_path is not None:
            import os

            if os.path.exists(profile_path):
                try:
                    profiles = load_profiles(
                        partition, profile_path, compiler=self.compiler
                    )
                except ProfilingError:
                    profiles = None  # stale/corrupt artifact: re-profile
        if profiles is None:
            profiler = CompilerAwareProfiler(
                machine=self.machine,
                compiler=self.compiler,
                sample_runs=self.profile_sample_runs,
            )
            profiles = profiler.profile_partition(partition)
            if profile_path is not None:
                try:
                    save_profiles(partition, profiles, profile_path)
                except OSError as exc:
                    # An unwritable artifact (read-only dir, disk full)
                    # must not sink the optimization: we still hold the
                    # fresh in-memory profiles; next run just re-profiles.
                    warnings.warn(
                        f"could not write profile artifact {profile_path}: "
                        f"{exc}; continuing with in-memory profiles",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        scheduler = GreedyCorrectionScheduler(
            machine=self.machine, overlap=self.overlap
        )
        schedule = scheduler.schedule(graph, partition, profiles)
        if self._should_validate():
            self._debug_validate(graph, partition, schedule)

        # The whole-model modules double as standing degradation plans:
        # if a device is permanently lost at runtime, the survivor's plan
        # can serve the request (and all follow-ups) alone.
        degradation_plans = {
            dev: single_device_plan(mod, dev)
            for dev, mod in single_modules.items()
        }
        # Priced under the same transfer discipline as the hetero schedule
        # so the fallback comparison is apples-to-apples.
        single_latency = {
            dev: simulate(plan, self.machine, overlap=self.overlap).latency
            for dev, plan in degradation_plans.items()
        }
        best_dev = min(single_latency, key=lambda d: single_latency[d])
        best_single = single_latency[best_dev]

        # Fallback (§VI-E): co-execution must actually win, otherwise run
        # on the fastest single device.
        if schedule.latency < best_single * (1.0 - self.fallback_margin):
            plan = schedule.plan
            fallback = None
            latency = schedule.latency
        else:
            plan = degradation_plans[best_dev]
            fallback = best_dev
            latency = best_single

        return DuetOptimization(
            graph=graph,
            partition=partition,
            profiles=profiles,
            schedule=schedule,
            plan=plan,
            fallback_device=fallback,
            latency=latency,
            single_device_latency=single_latency,
            degradation_plans=degradation_plans,
        )

    def run(
        self,
        opt: DuetOptimization,
        inputs: Mapping[str, np.ndarray] | None = None,
        rng: np.random.Generator | None = None,
    ) -> ExecutionResult:
        """Execute one inference of an optimized model."""
        return simulate(
            opt.plan, self.machine, rng=rng, inputs=inputs, overlap=self.overlap
        )

    def session(
        self,
        graph_or_opt: Graph | DuetOptimization,
        profile_path: str | None = None,
        trace_sink=None,
        preallocate: bool = True,
    ) -> EngineSession:
        """Open a reusable serving session for one model.

        Optimizes the graph (or reuses an existing
        :class:`DuetOptimization`) exactly once, then returns an
        :class:`~repro.runtime.session.EngineSession` that serves
        repeated ``run(inputs)`` calls without re-entering the
        partitioner, profiler, or scheduler, with intermediate tensors
        preallocated in a reusable arena.

        Args:
            graph_or_opt: the model, or an optimization from
                :meth:`optimize`.
            profile_path: forwarded to :meth:`optimize` when a graph is
                given.
            trace_sink: optional callable receiving a structured
                :class:`~repro.runtime.core.ExecutionEvent` per task
                start/finish/error.
            preallocate: size the arena up front from declared node types.
        """
        if isinstance(graph_or_opt, DuetOptimization):
            opt = graph_or_opt
        else:
            opt = self.optimize(graph_or_opt, profile_path=profile_path)
        return EngineSession(
            opt.plan,
            validate=self._should_validate(),
            trace_sink=trace_sink,
            preallocate=preallocate,
            opt=opt,
        )

    def serve(
        self,
        models: "Graph | DuetOptimization | Mapping[str, Graph | DuetOptimization]",
        config=None,
        registry=None,
        **kwargs,
    ):
        """Open a multi-tenant serving frontend over one or more models.

        A thin constructor for
        :class:`~repro.serving.frontend.ServingFrontend`: each graph is
        optimized exactly once, then served from a pool of reusable
        sessions behind a bounded admission queue, with dynamic batching
        for stack-safe plans.
        A single graph/optimization is served under the model name
        ``"default"``.

        Args:
            models: one model, or a mapping of model name -> model.
            config: a :class:`~repro.serving.frontend.ServingConfig`.
            registry: a :class:`~repro.serving.metrics.MetricsRegistry`
                to populate (fresh one by default).
            **kwargs: forwarded to ``ServingFrontend`` (``clock``,
                ``fault_injectors``, ``autostart``).
        """
        from repro.serving.frontend import ServingFrontend

        if isinstance(models, (Graph, DuetOptimization)):
            models = {"default": models}
        return ServingFrontend(
            self, models, config=config, registry=registry, **kwargs
        )

    def run_resilient(
        self,
        opt: DuetOptimization,
        inputs: Mapping[str, np.ndarray],
        config: ResilienceConfig | None = None,
        faults: FaultPlan | FaultInjector | None = None,
    ) -> ExecutionReport:
        """Execute one inference on the fault-tolerant threaded path.

        Runs ``opt.plan`` under :class:`~repro.runtime.resilient.
        ResilientExecutor`: transient faults are retried with backoff,
        deadlines enforced, and a permanent device loss fails the
        remaining work over to the survivor — using ``opt``'s standing
        single-device degradation plans when the loss strikes before any
        subgraph completed.

        Args:
            opt: an optimization from :meth:`optimize`.
            inputs: model input tensors (external input name -> array).
            config: retry/deadline/failover knobs; defaults to
                :class:`~repro.runtime.resilient.ResilienceConfig`.
            faults: optional chaos to inject — a declarative
                :class:`~repro.runtime.faults.FaultPlan` or a prepared
                :class:`~repro.runtime.faults.FaultInjector`.

        Returns:
            An :class:`~repro.runtime.resilient.ExecutionReport` with the
            outputs plus the structured fault/retry/failover event log.
            Terminal failures raise an
            :class:`~repro.errors.ExecutionError` subclass carrying the
            partial report as ``exc.report``.
        """
        if isinstance(faults, FaultInjector):
            injector = faults
        elif faults is not None:
            injector = FaultInjector(faults)
        else:
            injector = None
        executor = ResilientExecutor(
            opt.plan,
            config=config,
            fault_injector=injector,
            degradation_plans=opt.degradation_plans,
        )
        return executor.run(inputs)

    def latency_stats(
        self,
        opt: DuetOptimization,
        n_runs: int = 5000,
        warmup: int = 50,
        seed: int = 0,
    ) -> LatencyStats:
        """Sampled latency distribution of the chosen plan (paper §VI-A).

        Noise for all runs is drawn in batched NumPy arrays
        (:func:`~repro.runtime.simulator.simulate_batch`) instead of
        ``n_runs`` sequential simulator walks; seeded results stay
        reproducible.
        """
        return measure_latency_batch(
            lambda rng, n: simulate_batch(opt.plan, self.machine, rng, n),
            n_runs=n_runs,
            warmup=warmup,
            seed=seed,
        )
