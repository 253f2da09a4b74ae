"""Compiled kernels: fused operator groups plus cost metadata.

A :class:`CompiledKernel` is the unit the runtime executes and the unit the
device cost models price.  Its :class:`KernelCost` summarizes everything a
device needs: FLOPs, memory traffic, intra-kernel parallelism, and the
number of serially-dependent launches (recurrent layers lower to
``seq_len × kernels_per_step`` launches — the key to the paper's RNN-on-GPU
observation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.ir.ops import OpKind

__all__ = ["KernelCost", "CompiledKernel"]


@dataclass(frozen=True)
class KernelCost:
    """Cost metadata for one compiled kernel.

    Attributes:
        flops: total floating-point operations per invocation.
        bytes_in: bytes read from kernel-external tensors.
        bytes_out: bytes written to the kernel output.
        parallelism: independent parallel work items *per launch* (drives the
            GPU utilization model).
        sequential_steps: serially-dependent step count (1 except recurrent).
        kernels_per_step: device-kernel launches per step.
        kind: dominant computational category (conv, gemm, recurrent, ...).
    """

    flops: float
    bytes_in: float
    bytes_out: float
    parallelism: float
    sequential_steps: int = 1
    kernels_per_step: int = 1
    kind: OpKind = OpKind.ELEMWISE

    @property
    def total_launches(self) -> int:
        """Total device-kernel launches per invocation."""
        return self.sequential_steps * self.kernels_per_step

    @property
    def total_bytes(self) -> float:
        """Total external memory traffic per invocation."""
        return self.bytes_in + self.bytes_out


@dataclass(frozen=True)
class CompiledKernel:
    """One executable fused kernel.

    Attributes:
        name: debug label, e.g. ``"fused_dense_bias_add_relu_3"``.
        node_ids: graph nodes folded into this kernel (topological order).
        input_ids: kernel-external argument node ids, positional.
        output_id: graph node id whose value this kernel produces.
        fn: implementation taking the external arguments — the NumPy
            closure, or a ctypes-dispatched native kernel with the same
            call contract.
        cost: cost metadata for the device models.
        target_name: device this kernel was generated for.
        backend: kernel backend actually in use: ``"numpy"`` or
            ``"native"`` (a native-target module mixes them per kernel).
        reason: why this kernel has that backend: ``"numpy"`` on a NumPy
            target; on a native target ``"native"`` (rendered C measured
            faster), ``"native: pinned"`` (the caller chose the
            variant), ``"numpy: lost contest"``, ``"numpy: renderer
            rejected"``, ``"numpy: build failed"`` or ``"numpy: no
            compiler"``.
        exact: True when this kernel is bit-identical to the NumPy
            reference (always True for numpy; per the renderer's
            order-preserving analysis for native).
        run_into: optional zero-copy entry ``run_into(args, out)``
            writing the result into ``out``, a caller-owned C-contiguous
            buffer of the output's declared type, and returning ``out``
            — bit-identical to ``np.copyto(out, fn(args))``.  Native
            kernels have one, and so do NumPy kernels whose last op has
            an ``out=`` form; a NumPy one handed arguments of other
            types than declared returns its result unwritten instead.
    """

    name: str
    node_ids: tuple[str, ...]
    input_ids: tuple[str, ...]
    output_id: str
    fn: Callable[[Sequence[np.ndarray]], np.ndarray]
    cost: KernelCost
    target_name: str = "cpu"
    backend: str = "numpy"
    reason: str = "numpy"
    exact: bool = True
    run_into: Callable[[Sequence[np.ndarray], np.ndarray], np.ndarray] | None = None

    def __call__(self, args: Sequence[np.ndarray]) -> np.ndarray:
        return self.fn(args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledKernel({self.name!r}, nodes={len(self.node_ids)}, "
            f"flops={self.cost.flops:.3g})"
        )
