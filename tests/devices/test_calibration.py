"""Calibration tests: the cost model must reproduce the paper's Table II.

These are the load-bearing assertions of the whole reproduction — if they
hold, every scheduling experiment sits on a substrate with the right
relative magnitudes.
"""

import pytest

from repro.compiler import CPU_TARGET, compile_graph
from repro.devices import make_cpu, make_gpu
from repro.ir.ops import OpKind
from repro.models import build_model


@pytest.fixture(scope="module")
def wide_deep_kernels():
    graph = build_model("wide_deep")
    return compile_graph(graph, CPU_TARGET).module.kernels


def _time_of_kind(kernels, device, kind):
    return sum(
        device.kernel_time(k.cost) for k in kernels if k.cost.kind is kind
    )


class TestTable2Calibration:
    """Paper: RNN 2.4 ms CPU / 6.4 ms GPU; CNN 14.9 ms CPU / 0.9 ms GPU."""

    def test_rnn_faster_on_cpu(self, wide_deep_kernels):
        cpu, gpu = make_cpu(False), make_gpu(False)
        rnn_cpu = _time_of_kind(wide_deep_kernels, cpu, OpKind.RECURRENT)
        rnn_gpu = _time_of_kind(wide_deep_kernels, gpu, OpKind.RECURRENT)
        assert rnn_cpu < rnn_gpu
        assert 1.5 < rnn_gpu / rnn_cpu < 4.0  # paper ratio: 2.7

    def test_rnn_absolute_magnitudes(self, wide_deep_kernels):
        cpu, gpu = make_cpu(False), make_gpu(False)
        rnn_cpu = _time_of_kind(wide_deep_kernels, cpu, OpKind.RECURRENT)
        rnn_gpu = _time_of_kind(wide_deep_kernels, gpu, OpKind.RECURRENT)
        assert 1e-3 < rnn_cpu < 6e-3  # paper: 2.4 ms
        assert 4e-3 < rnn_gpu < 12e-3  # paper: 6.4 ms

    def test_cnn_faster_on_gpu(self, wide_deep_kernels):
        cpu, gpu = make_cpu(False), make_gpu(False)
        cnn_cpu = _time_of_kind(wide_deep_kernels, cpu, OpKind.CONV)
        cnn_gpu = _time_of_kind(wide_deep_kernels, gpu, OpKind.CONV)
        assert cnn_gpu < cnn_cpu
        assert 5.0 < cnn_cpu / cnn_gpu < 30.0  # paper ratio: 16.5

    def test_cnn_absolute_magnitudes(self, wide_deep_kernels):
        cpu, gpu = make_cpu(False), make_gpu(False)
        cnn_cpu = _time_of_kind(wide_deep_kernels, cpu, OpKind.CONV)
        cnn_gpu = _time_of_kind(wide_deep_kernels, gpu, OpKind.CONV)
        assert 7e-3 < cnn_cpu < 30e-3  # paper: 14.9 ms
        assert 0.4e-3 < cnn_gpu < 3e-3  # paper: 0.9 ms


class TestFig5Calibration:
    """Comm latency: linear growth, µs floor, ~12 GB/s asymptote."""

    def test_latency_floor_microseconds(self, machine):
        t = machine.link("cpu", "gpu").transfer_time(1024)
        assert 1e-6 < t < 1e-4

    def test_asymptotic_bandwidth(self, machine):
        bw = machine.link("cpu", "gpu").bandwidth_at(2**28)
        assert 10e9 < bw < 13e9

    def test_latency_vs_compute_scale(self, machine):
        # Paper §III-B: transfer delay for typical activations is orders
        # of magnitude below LSTM/CNN execution times.
        act_bytes = 256 * 4  # a [256] float hidden state
        assert machine.link("cpu", "gpu").transfer_time(act_bytes) < 1e-4
