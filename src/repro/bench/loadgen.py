"""The measurement layer: one closed-loop driver, one scoreboard, one verdict.

Every wall-clock serving measurement — ``repro serve``, ``chaos-serve``,
``slo-bench``, ``benchmarks/bench_serving_load.py`` — is one procedure:
N client threads each submit, wait, classify the outcome, record it,
repeat.  This module holds the single copy of each piece of it:

* :func:`run_closed_loop` — the only function that starts client threads;
* :class:`Scoreboard` — per-outcome counts plus ok-latencies of the
  requests attributed to one label (a chaos phase, a tenant, a whole run);
* :class:`HarnessReport` — the verdict a harness returns: the
  terminal-state checks, ``ok``, ``render()`` and ``to_json()``;
* :func:`reference_corpus` — seeded inputs plus the outputs a solo
  :class:`~repro.runtime.session.EngineSession` produces for them;
* :func:`elementwise_chain` — a stack-safe test-scale model whose batches
  the serving layer can execute as one concatenated dispatch, making
  batching's throughput effect measurable without BLAS noise.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from repro.bench.reporting import format_table
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionError,
    LoadShedError,
    QueueFullError,
    ReproError,
)
from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph

__all__ = [
    "OUTCOMES",
    "Client",
    "HarnessReport",
    "LoadRun",
    "Scoreboard",
    "TENANT_COLUMNS",
    "elementwise_chain",
    "record_preemptions",
    "reference_corpus",
    "run_closed_loop",
    "tenant_scoreboards",
]

#: Terminal outcomes a request can reach, in reporting order.
OUTCOMES = ("ok", "error", "shed", "rejected", "expired", "mismatch")

#: Columns of a per-tenant scoreboard table (``slo-bench``, ``serve``).
TENANT_COLUMNS = (
    "tenant", "class", "submitted", "ok", "error", "shed", "rejected",
    "expired", "rps", "p99_ms", "slo_ms", "misses", "preempted",
)


@dataclass
class Scoreboard:
    """Client-observed outcomes of the requests attributed to one label.

    Attributes:
        labels: what the requests have in common, as leading table
            columns — ``{"phase": "outage"}``, ``{"tenant": "search",
            "class": "critical"}``, or empty for a whole run.
        duration_s: wall time the label was live (rates divide by it).
        slo_p99_s: the label's p99 latency target, if it has one.
        preempted: phase-boundary suspensions the server counted for
            these requests (see :func:`record_preemptions`).
        counts: requests per terminal outcome, keyed by :data:`OUTCOMES`.
        latencies_s: client wall latency of each ``ok`` request.
    """

    labels: dict[str, object] = field(default_factory=dict)
    duration_s: float = 0.0
    slo_p99_s: float | None = None
    preempted: int = 0
    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(OUTCOMES, 0)
    )
    latencies_s: list[float] = field(default_factory=list)

    @property
    def name(self) -> str:
        """The identifying (first) label."""
        return str(next(iter(self.labels.values()), ""))

    @property
    def submitted(self) -> int:
        return sum(self.counts.values())

    @property
    def availability(self) -> float:
        """Fraction of attempted requests that succeeded in-deadline."""
        total = self.submitted
        return self.counts["ok"] / total if total else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.counts["ok"] / self.duration_s if self.duration_s else 0.0

    def p99_s(self) -> float:
        """Exact p99 of successful-request client latency, in seconds."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.array(self.latencies_s), 99))

    @property
    def slo_misses(self) -> int:
        """Client-observed completions slower than the SLO target."""
        if self.slo_p99_s is None:
            return 0
        return sum(1 for lat in self.latencies_s if lat > self.slo_p99_s)

    def to_row(self) -> dict:
        """The scoreboard as one table/JSON row."""
        return {
            **self.labels,
            "submitted": self.submitted,
            **self.counts,
            "avail_%": round(self.availability * 100, 1),
            "rps": round(self.throughput_rps, 1),
            "p99_ms": round(self.p99_s() * 1e3, 3),
            "slo_ms": (
                None if self.slo_p99_s is None
                else round(self.slo_p99_s * 1e3, 1)
            ),
            "misses": self.slo_misses,
            "preempted": self.preempted,
        }


def tenant_scoreboards(tenants, duration_s: float = 0.0) -> dict[str, Scoreboard]:
    """One scoreboard per tenant of a
    :class:`~repro.serving.tenants.TenantRegistry`, keyed by name."""
    return {
        cfg.name: Scoreboard(
            labels={"tenant": cfg.name, "class": cfg.priority},
            duration_s=duration_s,
            slo_p99_s=cfg.slo_p99_s,
        )
        for cfg in tenants
    }


def record_preemptions(boards: dict[str, Scoreboard], frontend, model: str) -> None:
    """Fill each tenant board's ``preempted`` from the frontend's
    ``duet_tenant_preemptions_total`` counter."""
    counter = frontend.registry.counter("duet_tenant_preemptions_total")
    for name, board in boards.items():
        board.preempted = int(counter.value(model=model, tenant=name))


@dataclass(kw_only=True)
class HarnessReport:
    """What a closed-loop harness measured, and whether it may pass.

    A harness subclasses this with its typed facts (dataclass fields),
    its table (``title``, ``row_label``, ``columns``), its headline
    :meth:`summary_lines` and its own :meth:`harness_failures`; the
    terminal-state checks, ``ok``, :meth:`render` and :meth:`to_json`
    are shared.

    Attributes:
        boards: the scoreboards to tabulate, in row order.
        hung_futures: admitted futures left unresolved after close.
        unaccounted: requests whose client observed no terminal outcome
            (the attempt raised something that is not a
            :class:`~repro.errors.ReproError`).
        mismatches: successful responses that were not bit-identical to
            the solo reference session.  All three must be 0.
        metrics_text: the frontend's final metrics exposition.
    """

    boards: list[Scoreboard]
    hung_futures: int
    unaccounted: int
    mismatches: int
    metrics_text: str = ""

    title: ClassVar[str]  # table heading
    row_label: ClassVar[str]  # what one row is: "phase", "tenant"
    columns: ClassVar[tuple[str, ...]]  # Scoreboard.to_row() keys shown
    held: ClassVar[str]  # verdict line when no invariant failed

    def summary_lines(self) -> list[str]:
        """Headline facts printed between the table and the verdict."""
        raise NotImplementedError

    def harness_failures(self) -> list[str]:
        """Violations of the invariants only this harness checks."""
        raise NotImplementedError

    def board(self, name: str) -> Scoreboard:
        """The scoreboard whose identifying label is ``name``."""
        for board in self.boards:
            if board.name == name:
                return board
        raise ExecutionError(f"no {self.row_label} named {name!r}")

    def invariant_failures(self) -> list[str]:
        """Every violated invariant, human-readable."""
        failures = []
        if self.hung_futures:
            failures.append(
                f"{self.hung_futures} admitted future(s) never reached a "
                "terminal state"
            )
        if self.unaccounted:
            failures.append(
                f"{self.unaccounted} request(s) observed no terminal outcome"
            )
        if self.mismatches:
            failures.append(
                f"{self.mismatches} successful response(s) were not "
                "bit-identical to the solo session"
            )
        return failures + self.harness_failures()

    @property
    def ok(self) -> bool:
        return not self.invariant_failures()

    def render(self) -> str:
        """The scoreboard table, the headline facts and the verdict."""
        rows = [board.to_row() for board in self.boards]
        lines = [format_table(rows, title=self.title, columns=self.columns)]
        lines += self.summary_lines()
        failures = self.invariant_failures()
        if failures:
            lines.append("INVARIANT FAILURES:")
            lines.extend(f"  - {f}" for f in failures)
        else:
            lines.append(self.held)
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Plain-data form of the report (the CI artifact): the rows,
        every typed fact under its field name, and the verdict."""
        facts = {f.name: getattr(self, f.name) for f in fields(self)}
        del facts["boards"], facts["metrics_text"]
        return {
            f"{self.row_label}s": [board.to_row() for board in self.boards],
            **facts,
            "ok": self.ok,
            "failures": self.invariant_failures(),
        }


def reference_corpus(graph: Graph, opt, size: int, seed: int):
    """``size`` seeded inputs for ``graph`` and, for each, the outputs a
    solo (fault-free, uncontended) session over ``opt`` produces — the
    reference every served response must match bit for bit."""
    from repro.ir import make_inputs
    from repro.runtime.session import EngineSession

    if size < 1:
        raise ExecutionError(f"corpus_size must be >= 1, got {size}")
    corpus = [make_inputs(graph, seed=seed + i) for i in range(size)]
    reference = EngineSession(opt.plan, opt=opt)
    expected = [
        [np.copy(o) for o in reference.run(feeds).outputs] for feeds in corpus
    ]
    return corpus, expected


class Client(NamedTuple):
    """One closed-loop client thread: the tenant it submits as and its
    idle time between a completion and the next submit."""

    tenant: str | None = None
    think_s: float = 0.0


@dataclass
class LoadRun:
    """What :func:`run_closed_loop` saw beyond the scoreboards: the wall
    time from first submit to last completion, the attempts that raised
    something other than a :class:`~repro.errors.ReproError` (a harness
    bug, never a serving outcome), and every future ``submit`` returned."""

    wall_time_s: float
    unaccounted: int
    futures: list

    def hung(self) -> int:
        """Admitted futures still unresolved; ask once the frontend is closed."""
        return sum(1 for fut in self.futures if not fut.done())


def _attempt(call: Callable[..., object], *args):
    """Run one request attempt; returns ``(outcome, result)``.

    A :class:`~repro.errors.ReproError` is a serving outcome; anything
    else leaves the outcome ``None`` — the request is unaccounted for.
    """
    try:
        return "ok", call(*args)
    except (CircuitOpenError, LoadShedError):
        return "shed", None
    except QueueFullError:
        return "rejected", None
    except DeadlineExceededError:
        return "expired", None
    except ReproError:
        return "error", None
    except Exception:
        return None, None


def _identical(outputs, want) -> bool:
    return len(outputs) == len(want) and all(
        np.array_equal(got, ref) for got, ref in zip(outputs, want)
    )


def run_closed_loop(
    submit: Callable[[int, Client], object],
    clients: Sequence[Client],
    board_for: Callable[[int, Client], Scoreboard],
    *,
    n_requests: int | None = None,
    foreground: Callable[[], None] | None = None,
    expected: Sequence | None = None,
    result_timeout_s: float | None = None,
) -> LoadRun:
    """Drive ``submit`` from one thread per client, closed loop.

    Each client claims the next request index, picks the scoreboard the
    request counts under (``board_for(index, client)``, evaluated *before*
    the submit so a request belongs to the phase that admitted it), calls
    ``submit(index, client)`` for a future and waits for its result,
    issuing its next request the moment the previous one settles — so
    at most ``len(clients)`` requests are in flight at any time.

    Exactly one of ``n_requests`` (clients stop when the indices
    ``0..n_requests-1`` are exhausted) and ``foreground`` (clients stop
    when it returns; it runs on the calling thread) bounds the run.

    A :class:`~repro.errors.ReproError` counts under its outcome and the
    loop goes on; after a refusal the client breathes for a millisecond
    so it cannot spin-submit doomed requests, after a served request it
    idles for ``client.think_s``.  With ``expected``, an ``ok`` result
    whose outputs differ from ``expected[index % len(expected)]`` counts
    as ``mismatch``.  Any other exception is tallied in
    :attr:`LoadRun.unaccounted` and the client keeps going.
    """
    if (n_requests is None) == (foreground is None):
        raise ExecutionError("give exactly one of n_requests and foreground")
    if n_requests is not None and n_requests <= 0:
        raise ExecutionError("n_requests must be positive")
    if not clients:
        raise ExecutionError("concurrency must be positive")
    if n_requests is None:
        indices = itertools.count()
    else:
        indices = iter(range(n_requests))
        clients = clients[:n_requests]
    stop = threading.Event()
    lock = threading.Lock()
    futures: list = []
    unaccounted = [0]

    def settle(index: int, client: Client):
        fut = submit(index, client)
        with lock:
            futures.append(fut)
        return fut.result(timeout_s=result_timeout_s)

    def loop(client: Client) -> None:
        while not stop.is_set():
            with lock:
                index = next(indices, None)
            if index is None:
                return
            board = board_for(index, client)
            began = time.perf_counter()
            outcome, result = _attempt(settle, index, client)
            elapsed = time.perf_counter() - began
            if (
                outcome == "ok"
                and expected is not None
                and not _identical(result.outputs, expected[index % len(expected)])
            ):
                outcome = "mismatch"
            with lock:
                if outcome is None:
                    unaccounted[0] += 1
                else:
                    board.counts[outcome] += 1
                    if outcome == "ok":
                        board.latencies_s.append(elapsed)
            if outcome not in ("ok", "error"):
                time.sleep(1e-3)
            elif client.think_s > 0:
                time.sleep(client.think_s)

    threads = [
        threading.Thread(target=loop, args=(c,), name=f"loadgen-{i}", daemon=True)
        for i, c in enumerate(clients)
    ]
    began = time.perf_counter()
    for t in threads:
        t.start()
    try:
        if foreground is not None:
            foreground()
    finally:
        if foreground is not None:
            stop.set()
        for t in threads:
            t.join()
    return LoadRun(
        wall_time_s=time.perf_counter() - began,
        unaccounted=unaccounted[0],
        futures=futures,
    )


def elementwise_chain(
    batch: int = 4, width: int = 64, depth: int = 6
) -> Graph:
    """A stack-safe test-scale model: elementwise/axis-1 ops only.

    Every op is row-independent along axis 0, so
    :func:`~repro.serving.batcher.analyze_stack_safety` approves the
    compiled plan and the serving layer can execute whole batches as one
    concatenated dispatch — the configuration the batching benchmark
    needs to measure a real throughput effect at test scale.
    """
    if depth < 1:
        raise ExecutionError(f"depth must be >= 1, got {depth}")
    b = GraphBuilder(f"elementwise_chain_b{batch}w{width}d{depth}")
    x = b.input("x", (batch, width))
    value = x
    for i in range(depth):
        value = b.op("tanh" if i % 2 == 0 else "sigmoid", value)
        value = b.op("add", value, x)
        gate = b.op("reduce_mean", value, axis=1, keepdims=True)
        value = b.op("multiply", value, gate)
    return b.build(value)
