"""The five workloads, their set-up, and the three traffic drivers
(closed loop, open loop, planning loop)."""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.compiler import Compiler
from repro.compiler.native import NativeCache, NativeOptions, graph_ulp_budget, ulp_close
from repro.core import DuetEngine
from repro.devices import Machine, default_machine, make_mesh
from repro.errors import ReproError
from repro.ir import Graph, run_graph
from repro.models import MODEL_NAMES, build_model
from repro.serving import ServingConfig
from repro.testing.invariants import validate_schedule

from harness.inputs import arrival_schedule, chain_graph, make_feeds, rng_for
from harness.metrics import OPEN_STEPS
from harness.spans import Tracer

__all__ = [
    "WORKLOADS",
    "Workload",
    "Checker",
    "Subject",
    "build_subjects",
    "make_engine",
    "serving_setup",
    "closed_loop",
    "open_loop",
    "plan_pairs",
    "plan_setup",
    "plan_loop",
]

clock = time.perf_counter

#: Latency limit of the open-loop workload, from each request's due time.
SLO_LIMIT_S = 10e-3
#: Patience for any single response before it counts as failed.
RESPONSE_TIMEOUT_S = 120.0
#: The paper's three evaluation models (§VI, Table I).
PAPER_MODELS = ("wide_deep", "siamese", "mtdnn")


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``kind`` is ``closed`` (one waiting client, round-robin over the
    models), ``open`` (Poisson arrivals onto the chain) or ``plan``
    (``DuetEngine.optimize`` calls).  ``warmup_rounds`` are discarded
    closed-loop rounds after set-up.  ``strict_tail`` says the run yields
    enough samples per model for a p95 with ten samples beyond it.
    ``pool`` is the number of distinct inputs per model.
    """

    name: str
    why: str
    kind: str
    backend: str
    models: tuple[str, ...]
    tiny: bool = False
    warmup_rounds: int = 0
    strict_tail: bool = False
    pool: int = 1
    nobatch_requests: int = 2

    def serving_config(self) -> ServingConfig:
        if self.kind != "open":
            return ServingConfig()
        # Refuse rather than block when the queue is full, so overload
        # shows as refusals and not as a stalled generator.  The queue is
        # deeper than the default 64 because this host stalls for tens of
        # milliseconds now and then: at 4000 rps that alone would fill 64
        # slots and turn a late request into a refused one.
        return ServingConfig(admission="reject", queue_capacity=512)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tiny_closed",
            why="tiny models, native backend, one waiting client: linger, "
            "thread hand-off and dispatch are most of a request, kernels little",
            kind="closed",
            backend="native",
            models=("wide_deep", "siamese", "mtdnn", "resnet"),
            tiny=True,
            warmup_rounds=20,
            strict_tail=True,
            nobatch_requests=200,
        ),
        Workload(
            name="paper_closed",
            why="Table I scale models on NumPy/BLAS kernels: kernel time is "
            ">97% of a request, so serving and dispatch changes should move nothing",
            kind="closed",
            backend="numpy",
            models=PAPER_MODELS,
            warmup_rounds=2,
        ),
        Workload(
            name="paper_native_closed",
            why="same traffic as paper_closed in rendered C: kernel-bound the "
            "other way, so a lowering change that helps one backend and costs "
            "the other shows",
            kind="closed",
            backend="native",
            models=PAPER_MODELS,
        ),
        Workload(
            name="batch_open",
            why="Poisson arrivals at 1000-4000 rps onto a stack-safe chain: "
            "admission, WFQ and the batcher dominate and linger buys batch fill",
            kind="open",
            backend="numpy",
            models=("chain",),
            strict_tail=True,
            pool=16,
            nobatch_requests=200,
        ),
        Workload(
            name="plan_zoo",
            why="offline side: optimize() over seven paper-scale models on a "
            "2-device and a 4-device machine; partition, profile, schedule, "
            "compile and the latency oracle do all the work, serving none",
            kind="plan",
            backend="numpy",
            models=MODEL_NAMES,
        ),
    )
}


class Checker:
    """Counts operations attempted and failed; an output that differs
    from the interpreter reference is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def expect(self, outputs, ref, budget: float) -> bool:
        """Bit-exact when ``budget`` is 0 (NumPy), else within the ULP budget."""
        ok = len(outputs) == len(ref) and all(
            ulp_close(got, want, budget) for got, want in zip(outputs, ref)
        )
        return self.record(ok)


@dataclass
class Subject:
    """One servable model with its seeded inputs and interpreter
    references (``interp_s``: what each reference took to compute)."""

    name: str
    graph: Graph
    feeds: list[dict[str, np.ndarray]]
    refs: list[list[np.ndarray]]
    budget: float
    interp_s: list[float]


def build_graph(name: str, tiny: bool) -> Graph:
    return chain_graph() if name == "chain" else build_model(name, tiny=tiny)


def build_subjects(
    workload: Workload, seed: int, tiny: bool | None = None
) -> list[Subject]:
    """Graphs, seeded inputs and one interpreter reference per input."""
    tiny = workload.tiny if tiny is None else tiny
    subjects = []
    for name in workload.models:
        graph = build_graph(name, tiny)
        feeds = [
            make_feeds(graph, seed, workload.name, name, str(k))
            for k in range(workload.pool)
        ]
        refs, interp_s = [], []
        for f in feeds:
            t0 = clock()
            refs.append(run_graph(graph, f))
            interp_s.append(clock() - t0)
        budget = graph_ulp_budget(graph) if workload.backend == "native" else 0.0
        subjects.append(Subject(name, graph, feeds, refs, budget, interp_s))
    return subjects


def make_engine(backend: str, cache_dir: Path, machine=None) -> DuetEngine:
    """A fresh engine; a native engine compiles into its own cache under
    ``cache_dir`` (``engine.compiler.native.cache``), so that cache's
    counters belong to this engine alone."""
    kwargs = {} if machine is None else {"machine": machine}
    if backend == "native":
        options = NativeOptions(cache=NativeCache(root=cache_dir))
        kwargs["compiler"] = Compiler(backend="native", native=options)
    return DuetEngine(**kwargs)


def serving_setup(workload: Workload, subjects, cache_dir: Path, checker: Checker):
    """What a deployment pays before it can serve: build every model,
    optimize and open sessions behind a frontend, and get one
    reference-checked response from each."""
    graphs = {s.name: build_graph(s.name, workload.tiny) for s in subjects}
    engine = make_engine(workload.backend, cache_dir)
    frontend = engine.serve(graphs, config=workload.serving_config())
    for s in subjects:
        result = frontend.request(
            s.feeds[0], model=s.name, timeout_s=RESPONSE_TIMEOUT_S
        )
        checker.expect(result.outputs, s.refs[0], s.budget)
    return frontend


# ----------------------------------------------------------------------
# closed loop


@dataclass
class Table:
    """One row per correct response, column-wise."""

    model: np.ndarray
    traced: np.ndarray
    latency_s: np.ndarray
    submit_s: np.ndarray
    queue_wait_s: np.ndarray
    exec_wall_s: np.ndarray
    batch_size: np.ndarray
    stacked: np.ndarray

    def by_model(self, column: str, traced: bool | None = None) -> dict[str, np.ndarray]:
        values = getattr(self, column)
        keep = np.ones(len(values), bool) if traced is None else self.traced == traced
        return {
            str(m): values[keep & (self.model == m)] for m in np.unique(self.model)
        }


@dataclass
class ClosedResult:
    rows: list[tuple]
    wall_s: float
    attempted: int

    def table(self) -> Table:
        columns = list(zip(*self.rows)) or [()] * 8
        return Table(*(np.asarray(c) for c in columns))


def closed_loop(
    frontend,
    subjects: Sequence[Subject],
    seconds: float,
    checker: Checker,
    tracer: Tracer | None = None,
    min_rounds: int = 1,
) -> ClosedResult:
    """One client, one request in flight, round-robin over the models, in
    whole rounds until ``seconds`` have passed.  Every response is
    compared with its reference after its clock has stopped; the time the
    comparisons take is taken out of the wall time.  ``min_rounds`` keeps
    the loop going past ``seconds`` until every model has the samples its
    statistics need.  With a tracer, odd rounds record a ``request`` span
    tree and even rounds do not, which pairs traced and untraced latencies
    under identical conditions.
    """
    rows: list[tuple] = []
    attempted = 0
    unclocked = 0.0
    rounds = 0
    began = clock()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for s in subjects:
            variant = rounds % len(s.feeds)
            attempted += 1
            t0 = clock()
            try:
                future = frontend.submit(s.feeds[variant], model=s.name)
                t1 = clock()
                result = future.result(RESPONSE_TIMEOUT_S)
            except ReproError:
                checker.record(False)
                continue
            t2 = clock()
            if checker.expect(result.outputs, s.refs[variant], s.budget):
                rows.append(
                    (
                        s.name, traced, t2 - t0, t1 - t0, result.queue_wait_s,
                        result.wall_time_s, result.batch_size, result.stacked,
                    )
                )
            if traced:
                rid = tracer.add("request", t0, t2, request=attempted)
                tracer.add("serving.submit", t0, t1, parent=rid, request=attempted)
                tracer.add("serving.wait", t1, t2, parent=rid, request=attempted)
            unclocked += clock() - t2
        rounds += 1
        if clock() - began >= seconds and rounds >= min_rounds:
            break
    return ClosedResult(rows, clock() - began - unclocked, attempted)


# ----------------------------------------------------------------------
# open loop

OK, REFUSED, ERRORED, WRONG = 1, 2, 3, 4


@dataclass
class OpenResult:
    """Per-request arrays of one open-loop run (times in seconds)."""

    step_s: float
    step: np.ndarray  # index of the rate step each request falls in
    due: np.ndarray
    late: np.ndarray  # actual send - due
    latency: np.ndarray  # completion - due (nan unless OK)
    done: np.ndarray  # completion or refusal time, from the run's origin
    status: np.ndarray
    submit_s: np.ndarray
    traced: np.ndarray
    batch_size: np.ndarray
    stacked: np.ndarray
    queue_wait_s: np.ndarray
    exec_wall_s: np.ndarray
    wall_s: float = 0.0

    def table(self) -> Table:
        ok = self.status == OK
        return Table(
            np.full(int(ok.sum()), "chain"), self.traced[ok], self.latency[ok],
            self.submit_s[ok], self.queue_wait_s[ok], self.exec_wall_s[ok],
            self.batch_size[ok], self.stacked[ok],
        )

    def ok(self, step: int | None = None) -> np.ndarray:
        mask = self.status == OK
        return mask if step is None else mask & (self.step == step)

    def failed_share(self, step: int) -> float:
        sent = self.step == step
        return float(np.count_nonzero(sent & (self.status != OK)) / max(1, sent.sum()))

    def backlog_grows(self, step: int) -> bool:
        """Whether more requests were outstanding at the end of the step
        than at its middle, by more than two full batches."""
        end = (step + 1) * self.step_s

        def outstanding(t: float) -> int:
            return int(np.count_nonzero(self.due <= t) - np.count_nonzero(self.done <= t))

        return outstanding(end) - outstanding(end - self.step_s / 2) > 16

    def slo_counts(self, steps: Sequence[int]) -> tuple[int, int]:
        """``(good, sent)`` over ``steps``: requests that completed
        correctly within the limit, and requests sent.  Refused, failed,
        wrong and late ones are sent but not good."""
        sent = np.isin(self.step, steps)
        good = sent & (self.status == OK) & (self.latency <= SLO_LIMIT_S)
        return int(good.sum()), int(sent.sum())

    def slo_share(self, steps: Sequence[int]) -> float:
        good, sent = self.slo_counts(steps)
        return good / max(1, sent)


def open_loop(
    frontend,
    subject: Subject,
    seed: int,
    seconds: float,
    checker: Checker,
    tracer: Tracer | None = None,
    stream: str = "arrivals",
) -> OpenResult:
    """Send on a seeded Poisson schedule whatever the server does.

    The calling thread sleeps to each due time and submits; it never
    spins, because a spinning generator holds the GIL and halves the
    server's capacity.  One collector thread waits on the futures in send
    order.  Latency runs from the *due* time, so a stall in the generator
    or the server is charged to every request it delays.  Outputs are
    compared with their references after the run.
    """
    step_s = seconds / len(OPEN_STEPS)
    rng = rng_for(seed, stream)
    due, step = arrival_schedule(rng, [(float(r), step_s) for r in OPEN_STEPS])
    n = len(due)
    variant = rng.integers(0, len(subject.feeds), size=n)
    res = OpenResult(
        step_s=step_s, step=step, due=due,
        late=np.zeros(n), latency=np.full(n, np.nan), done=np.full(n, np.inf),
        status=np.zeros(n, dtype=np.int8), submit_s=np.zeros(n),
        traced=(np.arange(n) % 2 == 1) if tracer is not None else np.zeros(n, bool),
        batch_size=np.zeros(n), stacked=np.zeros(n, bool),
        queue_wait_s=np.zeros(n), exec_wall_s=np.zeros(n),
    )
    outputs: list = [None] * n
    sent_at = np.zeros(n)
    pending: queue.SimpleQueue = queue.SimpleQueue()
    origin = clock() + 0.05

    def collect() -> None:
        while (item := pending.get()) is not None:
            i, future = item
            try:
                result = future.result(RESPONSE_TIMEOUT_S)
            except ReproError:
                res.done[i] = clock() - origin
                res.status[i] = ERRORED
                continue
            res.done[i] = clock() - origin
            outputs[i] = result.outputs
            res.status[i] = OK
            res.batch_size[i] = result.batch_size
            res.stacked[i] = result.stacked
            res.queue_wait_s[i] = result.queue_wait_s
            res.exec_wall_s[i] = result.wall_time_s

    collector = threading.Thread(target=collect, name="perf-collector")
    collector.start()
    try:
        for i in range(n):
            delay = origin + due[i] - clock()
            if delay > 0:
                time.sleep(delay)
            t0 = clock()
            try:
                future = frontend.submit(subject.feeds[variant[i]])
            except ReproError:
                res.status[i] = REFUSED
                res.done[i] = clock() - origin
            else:
                pending.put((i, future))
            sent_at[i] = t0 - origin
            res.submit_s[i] = clock() - t0
    finally:
        pending.put(None)
        collector.join()
    res.wall_s = float(np.max(res.done[np.isfinite(res.done)], initial=due[-1]))
    res.late = sent_at - due

    for i in range(n):
        if res.status[i] == OK:
            if not checker.expect(outputs[i], subject.refs[variant[i]], subject.budget):
                res.status[i] = WRONG
        else:
            checker.record(False)
        if tracer is not None and res.traced[i] and res.status[i] != REFUSED:
            t0, t1 = origin + sent_at[i], origin + sent_at[i] + res.submit_s[i]
            t2 = max(t1, origin + res.done[i])
            rid = tracer.add("request", t0, t2, request=i)
            tracer.add("serving.submit", t0, t1, parent=rid, request=i)
            tracer.add("serving.wait", t1, t2, parent=rid, request=i)
    res.latency = np.where(res.status == OK, res.done - due, np.nan)
    return res


# ----------------------------------------------------------------------
# planning loop


@dataclass
class PlanPair:
    label: str
    graph: Graph
    machine: Machine
    placement: dict[str, str] | None = None
    fallback: str | None = None


def plan_pairs(models: Sequence[str]) -> list[PlanPair]:
    """Every paper-scale model on the 2-device and the 4-device machine."""
    machines = {"m2": default_machine(), "mesh4": make_mesh(3)}
    return [
        PlanPair(f"{model}@{mname}", build_model(model), machine)
        for mname, machine in machines.items()
        for model in models
    ]


def _optimize_checked(pair: PlanPair, checker: Checker) -> float:
    """One ``optimize()``, returning when it finished.  It counts as
    correct when the plan passes every schedule invariant and places each
    subgraph as the set-up's plan did."""
    machine = pair.machine
    try:
        opt = DuetEngine(machine=machine).optimize(pair.graph)
    except ReproError:
        checker.record(False)
        return clock()
    done = clock()
    violations = validate_schedule(
        pair.graph, opt.partition, opt.placement, opt.schedule.plan,
        devices=machine.device_names, host=machine.host,
    )
    if pair.placement is None:
        pair.placement, pair.fallback = dict(opt.placement), opt.fallback_device
    same = opt.placement == pair.placement and opt.fallback_device == pair.fallback
    checker.record(not violations and same)
    return done


def plan_setup(
    models: Sequence[str], checker: Checker, reference: Sequence[PlanPair] = ()
) -> list[PlanPair]:
    """Build every model and optimize every (model, machine) pair once.
    With ``reference`` pairs from an earlier set-up, the new plans must
    place every subgraph as those did."""
    pairs = plan_pairs(models)
    for pair, ref in zip(pairs, reference):
        pair.placement, pair.fallback = ref.placement, ref.fallback
    for pair in pairs:
        _optimize_checked(pair, checker)
    return pairs


@dataclass
class PlanResult:
    latencies: dict[str, list[float]] = field(default_factory=dict)
    traced: dict[str, list[bool]] = field(default_factory=dict)
    wall_s: float = 0.0
    attempted: int = 0

    def by_pair(self, traced: bool) -> dict[str, list[float]]:
        return {
            label: [t for t, flag in zip(times, self.traced[label]) if flag == traced]
            for label, times in self.latencies.items()
        }


def plan_loop(
    pairs: Sequence[PlanPair],
    seconds: float,
    checker: Checker,
    tracer: Tracer | None = None,
    min_cycles: int = 1,
) -> PlanResult:
    """Whole cycles over every pair until ``seconds`` have passed; each
    plan is validated after its clock has stopped."""
    out = PlanResult()
    unclocked = 0.0
    cycles = 0
    began = clock()
    while True:
        traced = tracer is not None and cycles % 2 == 1
        for pair in pairs:
            out.attempted += 1
            failed_before = checker.failed
            t0 = clock()
            t1 = _optimize_checked(pair, checker)
            if checker.failed == failed_before:
                out.latencies.setdefault(pair.label, []).append(t1 - t0)
                out.traced.setdefault(pair.label, []).append(traced)
            if traced:
                rid = tracer.add("request", t0, t1, request=out.attempted)
                tracer.add("core.optimize", t0, t1, parent=rid, request=out.attempted)
            unclocked += clock() - t1
        cycles += 1
        if clock() - began >= seconds and cycles >= min_cycles:
            break
    out.wall_s = clock() - began - unclocked
    return out
