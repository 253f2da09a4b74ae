"""Tests for lowering and CompiledModule execution."""

import numpy as np
import pytest

from repro.compiler import (
    CPU_TARGET,
    GPU_TARGET,
    compile_graph,
    lower,
    plan_fusion,
)
from repro.errors import ExecutionError
from repro.ir import GraphBuilder, make_inputs, run_graph
from repro.ir.ops import OpKind


class TestLowering:
    def test_module_matches_interpreter(self, diamond_graph):
        mod = lower(diamond_graph, CPU_TARGET)
        feeds = make_inputs(diamond_graph)
        np.testing.assert_allclose(
            mod.run(feeds)[0], run_graph(diamond_graph, feeds)[0], rtol=1e-5
        )

    def test_kernels_in_executable_order(self, tiny_model):
        mod = lower(tiny_model, CPU_TARGET)
        produced = set(mod.input_ids) | {n.id for n in tiny_model.const_nodes()}
        for kernel in mod.kernels:
            for src in kernel.input_ids:
                assert src in produced, f"kernel consumes unproduced {src}"
            produced.add(kernel.output_id)

    def test_unfused_has_one_kernel_per_op(self, diamond_graph):
        mod = lower(diamond_graph, CPU_TARGET, fuse=False)
        assert len(mod.kernels) == len(diamond_graph.op_nodes())

    def test_fused_has_fewer_launches(self, tiny_model):
        fused = lower(tiny_model, CPU_TARGET)
        unfused = lower(tiny_model, CPU_TARGET, fuse=False)
        assert fused.total_launches() < unfused.total_launches()
        assert fused.total_flops() == pytest.approx(unfused.total_flops())

    def test_target_recorded(self, diamond_graph):
        assert lower(diamond_graph, GPU_TARGET).target.is_gpu
        assert all(
            k.target_name == "gpu"
            for k in lower(diamond_graph, GPU_TARGET).kernels
        )

    def test_missing_input_raises(self, diamond_graph):
        mod = lower(diamond_graph, CPU_TARGET)
        with pytest.raises(ExecutionError):
            mod.run({})

    def test_params_cached(self, tiny_model):
        mod = lower(tiny_model, CPU_TARGET)
        assert mod.params is mod.params


class TestKernelCosts:
    def _fused_dense_module(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 8))
        w = b.const((4, 8))
        bias = b.const((4,))
        y = b.op("relu", b.op("bias_add", b.op("dense", x, w), bias))
        return b.build(y)

    def test_flops_aggregate_over_group(self):
        g = self._fused_dense_module()
        mod = lower(g, CPU_TARGET)
        (kernel,) = mod.kernels
        dense_flops = 2 * 2 * 4 * 8
        elemwise = 2 * 4 * 2  # bias_add + relu over (2,4)
        assert kernel.cost.flops == pytest.approx(dense_flops + elemwise)

    def test_bytes_in_counts_external_only(self):
        g = self._fused_dense_module()
        (kernel,) = lower(g, CPU_TARGET).kernels
        # x (2x8) + w (4x8) + bias (4) floats
        assert kernel.cost.bytes_in == (16 + 32 + 4) * 4
        assert kernel.cost.bytes_out == 2 * 4 * 4

    def test_anchor_kind_used(self):
        g = self._fused_dense_module()
        (kernel,) = lower(g, CPU_TARGET).kernels
        assert kernel.cost.kind is OpKind.GEMM

    def test_lstm_kernel_steps(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 9, 4))
        w_ih = b.const((16, 4))
        w_hh = b.const((16, 4))
        bias = b.const((16,))
        y = b.op("lstm", x, w_ih, w_hh, bias, hidden_size=4)
        mod = lower(b.build(y), GPU_TARGET)
        (kernel,) = mod.kernels
        assert kernel.cost.sequential_steps == 9
        assert kernel.cost.total_launches == 18

    def test_duplicate_external_input_counted_once(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 4))
        y = b.op("add", x, x)
        (kernel,) = lower(b.build(y), CPU_TARGET).kernels
        assert kernel.cost.bytes_in == 2 * 4 * 4
        assert kernel.input_ids == ("x",)


class TestCompileGraph:
    def test_pass_trace_recorded(self, diamond_graph):
        res = compile_graph(diamond_graph, CPU_TARGET)
        names = [r.name for r in res.pass_trace]
        assert "simplify" in names and "cse" in names

    def test_opt_level_zero_skips_passes(self, diamond_graph):
        res = compile_graph(diamond_graph, CPU_TARGET, opt_level=0)
        assert res.pass_trace == ()

    def test_optimization_preserves_semantics(self, tiny_model):
        feeds = make_inputs(tiny_model)
        ref = run_graph(tiny_model, feeds)
        for opt_level in (0, 1, 2):
            mod = compile_graph(tiny_model, CPU_TARGET, opt_level=opt_level).module
            got = mod.run(feeds)
            for a, b in zip(ref, got):
                np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)

    def test_param_seed_controls_weights(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 4))
        w = b.const((4, 4), name="w")
        g = b.build(b.op("dense", x, w))
        m1 = compile_graph(g, CPU_TARGET, param_seed=1).module
        m2 = compile_graph(g, CPU_TARGET, param_seed=2).module
        feeds = make_inputs(g)
        assert not np.allclose(m1.run(feeds)[0], m2.run(feeds)[0])


class TestNumpyRunInto:
    """A NumPy kernel whose last op has an ``out=`` form writes into the
    caller's buffer exactly what computing and copying in would."""

    @staticmethod
    def _args(graph, kernel, rng, dtype=None):
        return [
            rng.standard_normal(graph.node(i).ty.shape).astype(
                dtype or graph.node(i).ty.dtype.to_numpy()
            )
            for i in kernel.input_ids
        ]

    def test_zoo_kernels_write_the_closures_bits(self, tiny_model):
        graph = tiny_model
        module = lower(graph, CPU_TARGET)
        rng = np.random.default_rng(0)
        covered = 0
        for kernel in module.kernels:
            last = graph.node(kernel.node_ids[-1])
            if kernel.run_into is None:
                continue
            covered += 1
            assert last.id == kernel.output_id
            args = [
                module.params[i] if i in module.params else a
                for i, a in zip(kernel.input_ids, self._args(graph, kernel, rng))
            ]
            ty = graph.node(kernel.output_id).ty
            out = np.full(ty.shape, np.nan, dtype=ty.dtype.to_numpy())
            with np.errstate(all="ignore"):
                want = np.empty_like(out)
                np.copyto(want, kernel(args))
                assert kernel.run_into(args, out) is out
            bits = {2: np.uint16, 4: np.uint32, 8: np.uint64}[out.itemsize]
            np.testing.assert_array_equal(out.view(bits), want.view(bits))
        assert covered > 0

    def test_only_out_form_tails_get_run_into(self, diamond_graph):
        module = lower(diamond_graph, CPU_TARGET, fuse=False)
        tails = {
            k.output_id: k.run_into is not None for k in module.kernels
        }
        assert tails == {"a": True, "left": True, "right": False, "join": True}

    def test_integer_tail_has_no_run_into(self):
        from repro.ir.dtype import INT32

        b = GraphBuilder("int_div")
        x = b.input("x", (2, 3), dtype=INT32)
        y = b.input("y", (2, 3), dtype=INT32)
        (kernel,) = lower(b.build(b.op("divide", x, y)), CPU_TARGET).kernels
        assert kernel.run_into is None  # int / int is float64 in NumPy

    def test_misdeclared_arguments_come_back_unwritten(self, diamond_graph):
        module = lower(diamond_graph, CPU_TARGET, fuse=False)
        kernel = next(k for k in module.kernels if k.output_id == "join")
        args = self._args(diamond_graph, kernel, np.random.default_rng(1), np.float64)
        out = np.zeros((2, 8), dtype=np.float32)
        got = kernel.run_into(args, out)
        assert got is not out and got.dtype == np.float64
        np.testing.assert_array_equal(got, kernel(args))
        assert not out.any()
