"""Tests for the double-buffered (overlap) transfer discipline.

Covers the eager link discipline of :mod:`repro.runtime.simulator`
(``simulate(..., overlap=True)`` and ``simulate_stream``) and the
bit-identity guarantee: overlap changes the virtual clock, never the
data.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.ir import GraphBuilder
from repro.runtime import Source, simulate, simulate_stream
from repro.runtime.faults import FaultInjector, FaultPlan, TransferFault
from repro.runtime.plan import HeteroPlan

from .test_simulator import _dense_graph, _ext, _task


def _late_vs_bulk_plan():
    """Two tasks whose lazy link order wastes the bulk transfer window.

    ``t_u`` computes on the CPU for a while and feeds its small output to
    the GPU join ``t_j``; the join *also* consumes a 1 MB external input,
    listed after ``u`` in its sources.  The lazy discipline reaches the
    join's transfers in source order — the bulk copy queues behind the
    late ``u`` tensor even though it was ready at arrival.  The overlap
    discipline ships it at t=0, inside ``t_u``'s compute window.
    """
    u_graph = _dense_graph("u", units=256, in_dim=256)

    n = 256 * 1024  # 1 MB of float32
    b = GraphBuilder("join")
    ju = b.input("u_in", (1, 256))
    jb = b.input("xb", (1, n))
    j = b.op("concat", ju, jb, axis=1)
    j_graph = b.build(b.op("reduce_mean", j, axis=1, keepdims=True))

    t_u = _task(u_graph, "t_u", "cpu", _ext("x"))
    t_j = _task(
        j_graph,
        "t_j",
        "gpu",
        {
            "u_in": Source(kind="task", ref="t_u", output_index=0),
            "xb": Source(kind="external", ref="xb"),
        },
    )
    return HeteroPlan(tasks=[t_u, t_j], outputs=[("t_j", 0)])


class TestLinkReadyOrder:
    def test_bulk_external_transfer_not_blocked_by_late_tensor(self, machine):
        """Regression: plan-iteration order must not delay ready transfers."""
        plan = _late_vs_bulk_plan()
        lazy = simulate(plan, machine)
        eager = simulate(plan, machine, overlap=True)

        u_finish = next(r for r in lazy.tasks if r.task_id == "t_u").finish
        lazy_bulk = next(t for t in lazy.transfers if t.what == "external:xb")
        eager_bulk = next(t for t in eager.transfers if t.what == "external:xb")
        # Lazy reaches the join's sources only in task order: the bulk
        # copy queues behind the late ``u`` tensor.
        assert lazy_bulk.start >= u_finish
        # Overlap serves the link in ready order: the external input was
        # ready at arrival and ships immediately.
        assert eager_bulk.start == pytest.approx(0.0)
        # The recovered window — the bulk copy overlapping ``t_u``'s
        # compute — is the whole point.
        assert eager.latency < lazy.latency
        assert lazy.latency - eager.latency >= 0.5 * u_finish

    def test_overlap_timeline_keeps_link_serialized(self, machine):
        plan = _late_vs_bulk_plan()
        result = simulate(plan, machine, overlap=True)
        xfers = sorted(result.transfers, key=lambda t: t.start)
        for prev, cur in zip(xfers, xfers[1:]):
            assert cur.start >= prev.finish - 1e-12

    def test_replay_is_deterministic(self, machine):
        plan = _late_vs_bulk_plan()
        a = simulate(plan, machine, overlap=True)
        b = simulate(plan, machine, overlap=True)
        assert a.latency == b.latency
        assert a.tasks == b.tasks
        assert a.transfers == b.transfers
        # The stream wrapper shares the replay: one request prices the same.
        assert simulate_stream(plan, machine, 1).latencies == (a.latency,)


class TestBitIdentity:
    def test_overlap_outputs_bit_identical(self, machine):
        plan = _late_vs_bulk_plan()
        feeds = {
            "x": np.random.default_rng(0)
            .standard_normal((1, 256))
            .astype(np.float32),
            "xb": np.random.default_rng(1)
            .standard_normal((1, 256 * 1024))
            .astype(np.float32),
        }
        lazy = simulate(plan, machine, inputs=feeds)
        eager = simulate(plan, machine, inputs=feeds, overlap=True)
        assert lazy.outputs is not None and eager.outputs is not None
        for a, b in zip(lazy.outputs, eager.outputs):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


class TestGuards:
    def test_overlap_rejects_fault_injection(self, machine):
        plan = _late_vs_bulk_plan()
        injector = FaultInjector(
            FaultPlan(
                transfer_faults=[
                    TransferFault(ref="xb", dest_device="gpu")
                ]
            )
        )
        with pytest.raises(ExecutionError, match="overlap"):
            simulate(plan, machine, overlap=True, injector=injector)

    def test_lazy_default_unchanged_by_flag_plumbing(self, machine):
        plan = _late_vs_bulk_plan()
        assert (
            simulate(plan, machine).latency
            == simulate(plan, machine, overlap=False).latency
        )


class TestDifferentialOracle:
    def test_xfer_bound_shape_conforms_across_all_arms(self, machine):
        """The oracle's overlap arms agree on a transfer-bound graph."""
        from repro.models.common import dense_layer, last_timestep, lstm_layer
        from repro.testing import run_differential

        b = GraphBuilder("xfer_bound_tiny")
        xu = b.input("xu", (1, 6, 16))
        xw = b.input("xw", (1, 8))
        xb = b.input("xb", (1, 4096))
        yu = lstm_layer(b, xu, 16, "u_lstm", return_sequences=True)
        yu = last_timestep(b, yu)
        yu = dense_layer(b, yu, 8, "u_head", activation=None)
        s = b.literal(np.asarray([2.0], dtype=np.float32), name="w_scale")
        yw = b.op("multiply", xw, s)
        j = b.op("concat", yu, yw, xb, axis=1)
        graph = b.build(b.op("reduce_mean", j, axis=1, keepdims=True))

        report = run_differential(graph, machine)
        assert report.ok, report.summary()
        assert any("simulator:overlap" in n for n in report.outcomes)
