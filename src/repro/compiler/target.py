"""Compilation targets.

A target names the device a module is generated for plus the kernel
*backend* used to execute it.  Numerics policy:

* ``backend="numpy"`` (default) lowers every kernel to the NumPy
  reference closures; numerics are identical across devices.
* ``backend="native"`` also renders each fused kernel to C
  (:mod:`repro.compiler.native`) and runs it there where that measured
  faster than the NumPy closure in a timed per-kernel contest; a kernel
  that lost, one the renderer rejects, and every kernel when no system
  compiler exists keep the closure.  Order-preserving kernels stay
  bit-identical to NumPy; reassociated GEMM/reduction kernels differ
  within the documented ULP policy (:mod:`repro.compiler.native.policy`).

What differs between cpu/gpu is the cost metadata the backend attaches —
on GPU every kernel is a device-kernel launch, while the CPU backend
runs kernels as plain function calls — and which device cost model the
runtime applies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import CompilerError

__all__ = ["Target", "BACKENDS", "CPU_TARGET", "GPU_TARGET"]

#: Recognized kernel backends.
BACKENDS = ("numpy", "native")


@dataclass(frozen=True)
class Target:
    """A code-generation target.

    Attributes:
        name: ``"cpu"`` or ``"gpu"``.
        backend: kernel backend, ``"numpy"`` or ``"native"``.
    """

    name: str
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.name not in ("cpu", "gpu"):
            raise CompilerError(f"unknown target {self.name!r}")
        if self.backend not in BACKENDS:
            raise CompilerError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )

    @property
    def is_gpu(self) -> bool:
        return self.name == "gpu"

    @property
    def is_native(self) -> bool:
        return self.backend == "native"

    def with_backend(self, backend: str) -> "Target":
        """This target with a different kernel backend."""
        return self if backend == self.backend else replace(self, backend=backend)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name if self.backend == "numpy" else f"{self.name}+{self.backend}"


CPU_TARGET = Target("cpu")
GPU_TARGET = Target("gpu")
