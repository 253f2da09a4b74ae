"""Tests for the one closed-loop driver + trivial-scale smoke of both
throughput benches (the simulated stream one and the real-thread serving
one)."""

import importlib.util
import pathlib
import sys
import threading
import time

import pytest

from repro.bench import Client, Scoreboard, elementwise_chain, run_closed_loop
from repro.core import DuetEngine
from repro.devices import default_machine
from repro.errors import ExecutionError, QueueFullError
from repro.serving import analyze_stack_safety

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _load_bench(name):
    """Import a benchmark module from the benchmarks/ directory."""
    # Benchmarks import their sibling conftest for emit().
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location(
            name, BENCH_DIR / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(BENCH_DIR))


class _Settled:
    """A future that already has its answer."""

    outputs = ()

    def result(self, timeout_s=None):
        return self

    def done(self):
        return True


def _budget(submit, n_requests, concurrency):
    board = Scoreboard()
    run = run_closed_loop(
        lambda i, client: submit(i) or _Settled(),
        [Client()] * concurrency,
        lambda i, client: board,
        n_requests=n_requests,
    )
    return board, run


class TestRunClosedLoop:
    def test_completes_every_request_exactly_once(self):
        seen = []
        lock = threading.Lock()

        def submit(i):
            with lock:
                seen.append(i)

        board, run = _budget(submit, n_requests=40, concurrency=4)
        assert board.counts["ok"] == board.submitted == 40
        assert run.unaccounted == 0 and run.hung() == 0
        assert sorted(seen) == list(range(40))
        assert len(board.latencies_s) == 40
        assert run.wall_time_s > 0

    def test_counts_errors_without_propagating(self):
        def submit(i):
            if i % 2:
                raise QueueFullError("full")

        board, run = _budget(submit, n_requests=10, concurrency=3)
        assert board.counts["ok"] == 5
        assert board.counts["rejected"] == 5
        assert run.unaccounted == 0

    def test_foreign_exception_is_unaccounted_and_client_keeps_going(self):
        def submit(i):
            if i % 2:
                raise ValueError("boom")

        board, run = _budget(submit, n_requests=10, concurrency=1)
        # Never folded into a serving outcome; the lone client survived
        # all five and still claimed every index.
        assert run.unaccounted == 5
        assert board.counts["ok"] == board.submitted == 5

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ExecutionError):
            _budget(lambda i: None, n_requests=0, concurrency=1)
        with pytest.raises(ExecutionError):
            _budget(lambda i: None, n_requests=1, concurrency=0)

    def test_foreground_bounds_the_run_and_selector_sees_submit_time(self):
        boards = {"before": Scoreboard(), "after": Scoreboard()}
        current = ["before"]
        flipped = threading.Event()
        chosen = []  # (index, board key) in selection order

        def board_for(i, client):
            chosen.append((i, current[0]))
            return boards[current[0]]

        def submit(i, client):
            if i == 3:
                # Flip *after* request 3 was attributed: it must still
                # count under the board picked before the submit.
                current[0] = "after"
                flipped.set()
            return _Settled()

        def foreground():
            assert flipped.wait(5.0)
            while boards["after"].submitted < 2:
                time.sleep(1e-3)

        run = run_closed_loop(
            submit, [Client(think_s=1e-4)], board_for, foreground=foreground
        )
        assert dict(chosen)[3] == "before"
        assert boards["before"].submitted == 4
        # Clients stopped when the foreground returned: nothing was
        # selected that did not also settle.
        total = boards["before"].submitted + boards["after"].submitted
        assert total == len(chosen) == len(run.futures)


class TestElementwiseChain:
    def test_is_stack_safe(self):
        opt = DuetEngine().optimize(elementwise_chain(batch=2, width=8, depth=2))
        assert analyze_stack_safety(opt.plan).stackable

    def test_depth_validation(self):
        with pytest.raises(ExecutionError):
            elementwise_chain(depth=0)


class TestBenchSmoke:
    def test_ext_throughput_bench_runs_at_trivial_scale(self):
        bench = _load_bench("bench_ext_throughput")
        rows = bench._run(default_machine(noisy=False))
        assert {r["system"] for r in rows} == {"TVM-CPU", "TVM-GPU", "DUET"}

    def test_serving_load_bench_runs_at_trivial_scale(self):
        bench = _load_bench("bench_serving_load")
        rows, results = bench._run(n_requests=24, concurrency=4)
        assert {r["arm"] for r in rows} == {"unbatched", "batched"}
        for load in results.values():
            assert load.counts["error"] == 0
            assert load.counts["ok"] == 24
