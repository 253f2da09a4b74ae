"""Phase-boundary preemption: bit-identity under forced suspension.

ISSUE 8 satellite 2.  The preemption contract — a request suspended at a
phase boundary and resumed later produces output bit-identical to an
uninterrupted run, even when other requests ran through the same
kernel/arena in between — is exercised three ways:

* directly on :meth:`~repro.runtime.core.DispatchKernel.run` with an
  always-true ``should_preempt`` predicate (suspend at *every*
  boundary) and arena-clobbering interlopers between segments;
* through :meth:`~repro.runtime.session.EngineSession.run` with the
  same predicate, including serving other requests on the same session
  while suspended;
* through the differential oracle's ``preempt`` arm over fuzzed
  graphs from :mod:`repro.testing.generators` (every live execution
  path must agree, and the arm itself verifies one suspension per
  plan phase boundary).
"""

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.devices import default_machine
from repro.errors import ExecutionError
from repro.ir import make_inputs
from repro.models import build_model
from repro.runtime.core import (
    CoreResult,
    DispatchKernel,
    InlineWorkers,
    PhaseCheckpoint,
    ThreadedWorkers,
)
from repro.runtime.memory import TensorArena
from repro.testing.generators import GeneratorConfig, generate_graph
from repro.testing.oracle import EXECUTOR_NAMES, run_differential


@pytest.fixture(scope="module")
def served():
    """A multi-phase model (wide_deep tiny: two plan phases), its
    engine, optimization, inputs, and reference outputs."""
    graph = build_model("wide_deep", tiny=True)
    engine = DuetEngine(machine=default_machine(noisy=False))
    opt = engine.optimize(graph)
    feeds = make_inputs(graph)
    ref = engine.run(opt, feeds).outputs
    return engine, opt, feeds, ref


def phase_boundaries(plan):
    return sum(
        1
        for prev, cur in zip(plan.tasks, plan.tasks[1:])
        if cur.phase_index != prev.phase_index
    )


class TestKernelPreemption:
    def test_always_preempt_suspends_at_every_boundary(self, served):
        engine, opt, feeds, ref = served
        kernel = DispatchKernel(
            opt.plan, workers=InlineWorkers(), arena=TensorArena()
        )
        boundaries = phase_boundaries(opt.plan)
        assert boundaries >= 1  # wide_deep is the multi-phase model

        hops = 0
        out = kernel.run(feeds, should_preempt=lambda: True)
        while isinstance(out, PhaseCheckpoint):
            assert out.next_index > 0  # progress guarantee: >= 1 task ran
            assert out.preemptions == hops + 1
            hops += 1
            out = kernel.run(should_preempt=lambda: True, checkpoint=out)
        assert hops == boundaries
        assert out.preemptions == hops
        for got, want in zip(out.outputs, ref):
            np.testing.assert_array_equal(got, want)

    def test_interloper_cannot_perturb_suspended_frontier(self, served):
        """Full dispatches through the same kernel (same arena) between
        segments must not change the resumed request's outputs — the
        checkpoint detaches its values from the arena."""
        engine, opt, feeds, ref = served
        other = make_inputs(opt.graph, seed=99)
        kernel = DispatchKernel(
            opt.plan, workers=InlineWorkers(), arena=TensorArena()
        )
        out = kernel.run(feeds, should_preempt=lambda: True)
        suspensions = 0
        while isinstance(out, PhaseCheckpoint):
            suspensions += 1
            kernel.run(other)  # interloper overwrites the arena buffers
            out = kernel.run(should_preempt=lambda: True, checkpoint=out)
        assert suspensions >= 1
        for got, want in zip(out.outputs, ref):
            np.testing.assert_array_equal(got, want)

    def test_predicate_consulted_once_per_boundary(self, served):
        engine, opt, feeds, ref = served
        kernel = DispatchKernel(
            opt.plan, workers=InlineWorkers(), arena=TensorArena()
        )
        calls = []

        def never(*, _calls=calls):
            calls.append(1)
            return False

        out = kernel.run(feeds, should_preempt=never)
        assert not isinstance(out, PhaseCheckpoint)
        assert len(calls) == phase_boundaries(opt.plan)

    def test_never_preempt_matches_plain_run(self, served):
        engine, opt, feeds, ref = served
        kernel = DispatchKernel(
            opt.plan, workers=InlineWorkers(), arena=TensorArena()
        )
        out = kernel.run(feeds, should_preempt=lambda: False)
        for got, want in zip(out.outputs, ref):
            np.testing.assert_array_equal(got, want)
        assert out.task_order == kernel.run(feeds).task_order

    def test_threaded_workers_rejected(self, served):
        engine, opt, feeds, ref = served
        kernel = DispatchKernel(opt.plan, workers=ThreadedWorkers())
        with pytest.raises(ExecutionError, match="InlineWorkers"):
            kernel.run(feeds, should_preempt=lambda: True)

    def test_fresh_start_requires_inputs(self, served):
        engine, opt, feeds, ref = served
        kernel = DispatchKernel(
            opt.plan, workers=InlineWorkers(), arena=TensorArena()
        )
        with pytest.raises(ExecutionError, match="inputs"):
            kernel.run(should_preempt=lambda: True)

    def test_single_phase_plan_never_suspends(self):
        """A plan with no phase boundaries has no suspension points."""
        graph = build_model("siamese", tiny=True)
        engine = DuetEngine(machine=default_machine(noisy=False))
        opt = engine.optimize(graph)
        if phase_boundaries(opt.plan) != 0:
            pytest.skip("siamese tiny gained a second phase")
        feeds = make_inputs(graph)
        kernel = DispatchKernel(
            opt.plan, workers=InlineWorkers(), arena=TensorArena()
        )
        out = kernel.run(feeds, should_preempt=lambda: True)
        assert not isinstance(out, PhaseCheckpoint)
        for got, want in zip(out.outputs, engine.run(opt, feeds).outputs):
            np.testing.assert_array_equal(got, want)


class TestSessionPreemption:
    def test_suspend_resume_bit_identical(self, served):
        engine, opt, feeds, ref = served
        session = engine.session(opt)
        outcome = session.run(feeds, should_preempt=lambda: True)
        resumes = 0
        while isinstance(outcome, PhaseCheckpoint):
            assert outcome.phase_index >= 0
            assert outcome.preemptions == resumes + 1
            resumes += 1
            outcome = session.run(
                should_preempt=lambda: True, checkpoint=outcome
            )
        assert isinstance(outcome, CoreResult)
        assert resumes == phase_boundaries(opt.plan)
        assert outcome.preemptions == resumes
        assert outcome.wall_time_s > 0
        for got, want in zip(outcome.outputs, ref):
            np.testing.assert_array_equal(got, want)

    def test_session_serves_others_while_suspended(self, served):
        """The session lock is released during suspension: the very
        session holding the checkpoint serves interloping requests, and
        the resumed outputs still match the uninterrupted reference."""
        engine, opt, feeds, ref = served
        other = make_inputs(opt.graph, seed=7)
        other_ref = engine.run(opt, other).outputs
        session = engine.session(opt)
        outcome = session.run(feeds, should_preempt=lambda: True)
        assert isinstance(outcome, PhaseCheckpoint)
        while isinstance(outcome, PhaseCheckpoint):
            interloper = session.run(other)  # same session, mid-suspension
            for got, want in zip(interloper.outputs, other_ref):
                np.testing.assert_array_equal(got, want)
            outcome = session.run(
                should_preempt=lambda: True, checkpoint=outcome
            )
        for got, want in zip(outcome.outputs, ref):
            np.testing.assert_array_equal(got, want)

    def test_resume_override_predicate(self, served):
        engine, opt, feeds, ref = served
        session = engine.session(opt)
        outcome = session.run(feeds, should_preempt=lambda: True)
        assert isinstance(outcome, PhaseCheckpoint)
        # Overriding with never-preempt finishes in one resume even
        # though the original predicate always fires.
        outcome = session.run(should_preempt=lambda: False, checkpoint=outcome)
        assert isinstance(outcome, CoreResult)
        assert outcome.preemptions == 1
        for got, want in zip(outcome.outputs, ref):
            np.testing.assert_array_equal(got, want)

    def test_completion_counts_one_request(self, served):
        engine, opt, feeds, ref = served
        session = engine.session(opt)
        outcome = session.run(feeds, should_preempt=lambda: True)
        assert session.requests_served == 0  # not done yet
        while isinstance(outcome, PhaseCheckpoint):
            outcome = session.run(
                should_preempt=lambda: True, checkpoint=outcome
            )
        assert session.requests_served == 1

    def test_never_preempt_is_plain_run(self, served):
        engine, opt, feeds, ref = served
        session = engine.session(opt)
        outcome = session.run(feeds, should_preempt=lambda: False)
        assert isinstance(outcome, CoreResult)
        assert outcome.preemptions == 0
        for got, want in zip(outcome.outputs, ref):
            np.testing.assert_array_equal(got, want)


class TestOraclePreemptArm:
    def test_arm_registered(self):
        assert "preempt" in EXECUTOR_NAMES

    def test_arm_runs_on_zoo_model(self):
        report = run_differential(build_model("wide_deep", tiny=True))
        assert report.ok, report.summary()
        assert "preempt" in report.outcomes
        assert report.outcomes["preempt"].outputs is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_graphs_conform(self, seed):
        """Small fuzzed graphs through every arm, preemption included."""
        config = GeneratorConfig(min_ops=3, max_ops=10)
        graph = generate_graph(
            np.random.default_rng(seed), config, name=f"preempt_fuzz_{seed}"
        )
        report = run_differential(graph, single_device=False)
        assert report.ok, report.summary()
        preempt_arms = [n for n in report.outcomes if n.startswith("preempt")]
        assert preempt_arms

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(4, 24))
    def test_fuzzed_graphs_conform_extended(self, seed):
        config = GeneratorConfig(min_ops=3, max_ops=10)
        graph = generate_graph(
            np.random.default_rng(seed), config, name=f"preempt_fuzz_{seed}"
        )
        # Some seeds trip a known partitioner chain-invariant issue
        # before any executor runs; that is not this suite's subject.
        from repro.core.partition import partition_graph
        from repro.testing.invariants import check_partition

        if check_partition(graph, partition_graph(graph)):
            pytest.skip("pre-existing partition invariant violation")
        report = run_differential(graph, single_device=False)
        assert report.ok, report.summary()
