"""ctypes-side runtime for native kernels: compiler discovery, the
``cc`` build step, and the :class:`NativeKernel` callable that drops
into ``CompiledKernel.fn``.

Compile flags are part of the numerics contract (see
:mod:`repro.compiler.native.policy`):

* ``-ffp-contract=off`` — gcc contracts ``a*b+c`` into FMA by default
  at ``-O2``, which changes results; off keeps every multiply/add
  individually rounded, as NumPy computes them.
* no ``-ffast-math`` — preserves NaN propagation, signed zeros, and
  IEEE division.

:class:`NativeKernel` mirrors the NumPy closure contract exactly —
``fn(list_of_arrays) -> np.ndarray`` — so threaded workers, serving
pools, the simulator's numeric replay, and preemptible sessions all
dispatch through it with zero executor changes.  Scratch space is
thread-local because serving pools share one compiled module across
worker threads, and ctypes releases the GIL for the duration of the C
call, so two threads really can be inside the same kernel at once.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.compiler.native.renderer import RenderedKernel

__all__ = [
    "CC_FLAGS",
    "NativeBuildError",
    "NativeKernel",
    "compile_source",
    "find_compiler",
    "native_available",
    "toolchain_fingerprint",
]

#: Flags appended to every compile; the contract part (`-ffp-contract=off`,
#: no fast-math) is what makes the exact-op class bit-identical to NumPy.
#: `-O3 -march=native` auto-vectorizes the independent-accumulator loops
#: (GEMM ni dimension, elementwise maps) — legal without reassociation,
#: so it never changes results; gcc only vectorizes sequential float
#: reductions under -ffast-math, which stays off.
CC_FLAGS = (
    "-O3",
    "-march=native",
    "-funroll-loops",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fno-fast-math",
)

ENV_CC = "REPRO_CC"
ENV_DISABLE = "REPRO_NATIVE_DISABLE"

#: Wall-clock bound on one compiler process; a compiler that hangs is a
#: failed build, not a hung engine.
COMPILE_TIMEOUT_S = 120.0

#: Environment variables that pin the BLAS thread count the NumPy side
#: of a contest is timed with.
_BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class NativeBuildError(Exception):
    """The system compiler could not produce an object for a rendered
    kernel: it rejected the source, could not be started, or hung."""


_addressof = ctypes.addressof
_from_buffer = ctypes.c_char.from_buffer


def _data_ptr(a: np.ndarray) -> int:
    """Data pointer of a contiguous array.

    ``a.ctypes.data`` builds a fresh interface wrapper on every access
    (~1.6µs) — dominant for sub-10µs kernels.  The buffer-protocol route
    is ~2× cheaper; read-only or zero-length arrays fall back to the
    wrapper.  The caller keeps ``a`` alive across the C call.
    """
    try:
        return _addressof(_from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


@lru_cache(maxsize=1)
def find_compiler() -> str | None:
    """Path of a usable C compiler, or None.

    Honours ``REPRO_CC`` first, then searches ``cc``/``gcc``/``clang``
    on PATH.  ``REPRO_NATIVE_DISABLE=1`` forces the no-compiler path
    (used by tests to exercise the NumPy fallback deterministically).
    """
    if os.environ.get(ENV_DISABLE):
        return None
    override = os.environ.get(ENV_CC)
    if override:
        return override if shutil.which(override) else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def native_available() -> bool:
    """True when a system C compiler is available for the native backend."""
    return find_compiler() is not None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


@lru_cache(maxsize=None)
def _fingerprint(cc: str | None) -> str:
    version = ""
    if cc is not None:
        try:
            proc = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=10
            )
            version = (proc.stdout or proc.stderr).split("\n", 1)[0].strip()
        except (OSError, subprocess.SubprocessError):
            pass
    pins = ",".join(f"{name}={os.environ.get(name, '')}" for name in _BLAS_PINS)
    return "|".join(
        (
            f"cc={cc}",
            version,
            " ".join(CC_FLAGS),
            platform.machine(),
            _cpu_model(),
            f"cpus={os.cpu_count()}",
            f"numpy={np.__version__}",
            pins,
        )
    )


def toolchain_fingerprint() -> str:
    """Where cache entries are built and timed: compiler and flags, CPU,
    NumPy version and BLAS thread pins.  Objects are compiled with
    ``-march=native`` and backend decisions are wall-clock measurements,
    so neither survives a move to another toolchain or host; the cache
    mixes this into every signature.  Computed once per compiler path."""
    return _fingerprint(find_compiler())


def compile_source(source: str, out_dir: Path) -> Path:
    """Compile ``source`` into a temporary .so inside ``out_dir`` and
    return its path (caller atomically renames it into the cache).

    Every way the build can fail (no compiler, the compiler rejects the
    source, cannot be started, or outlives :data:`COMPILE_TIMEOUT_S`, or
    the cache directory cannot be written) raises
    :class:`NativeBuildError` and leaves no temporary file behind.
    """
    cc = find_compiler()
    if cc is None:
        raise NativeBuildError("no C compiler available")
    c_path = so_path = None
    built = False
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        fd, c_path = tempfile.mkstemp(dir=str(out_dir), suffix=".c")
        so_path = c_path[:-2] + ".so"
        with os.fdopen(fd, "w") as fh:
            fh.write(source)
        cmd = [cc, *CC_FLAGS, "-o", so_path, c_path, "-lm"]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"{cc} failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
            )
        built = True
        return Path(so_path)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise NativeBuildError(f"{cc} did not build the kernel: {exc}") from exc
    finally:
        for path in (c_path, None if built else so_path):
            if path is not None:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass


@dataclass
class NativeKernel:
    """A ctypes-dispatched kernel with the NumPy-closure call contract."""

    rendered: RenderedKernel
    signature: str
    library: object  # ctypes.CDLL — kept referenced for the kernel's life

    def __post_init__(self) -> None:
        fn = getattr(self.library, self.rendered.entry)
        fn.argtypes = (
            ctypes.POINTER(ctypes.c_void_p),
            ctypes.c_void_p,
            ctypes.c_void_p,
        )
        fn.restype = None
        self._fn = fn
        self._np_dtypes = tuple(np.dtype(d) for d in self.rendered.arg_dtypes)
        self._out_dtype = np.dtype(self.rendered.out_dtype)
        self._tls = threading.local()
        # ctypes array *types* are expensive to create; for sub-10µs
        # kernels doing it per call would dominate the dispatch cost.
        self._ptr_type = ctypes.c_void_p * max(1, self.rendered.n_args)

    @property
    def exact(self) -> bool:
        return self.rendered.exact

    def _scratch(self) -> ctypes.c_void_p:
        nbytes = self.rendered.scratch_bytes
        if nbytes == 0:
            return ctypes.c_void_p(0)
        buf = getattr(self._tls, "scratch", None)
        if buf is None or buf.nbytes < nbytes:
            buf = np.empty(nbytes, dtype=np.uint8)
            self._tls.scratch = buf
        return ctypes.c_void_p(buf.ctypes.data)

    def _arg_array(self, args):
        n = self.rendered.n_args
        if len(args) != n:
            raise ValueError(
                f"native kernel {self.rendered.name} expects {n} args, got {len(args)}"
            )
        # Arena values can be non-contiguous views; those (and dtype
        # mismatches) take the ascontiguousarray copy path, while the
        # common contiguous case goes straight to the data pointer.  The
        # holder list keeps any temporaries alive across the C call.
        holders = None
        ptrs = self._ptr_type()
        for k, a in enumerate(args):
            if a.dtype is not self._np_dtypes[k] or not a.flags.c_contiguous:
                a = np.ascontiguousarray(a, dtype=self._np_dtypes[k])
                if holders is None:
                    holders = []
                holders.append(a)
            ptrs[k] = _data_ptr(a)
        return ptrs, holders

    def run_into(self, args, out: np.ndarray) -> np.ndarray:
        """Execute into a caller-owned contiguous output buffer."""
        ptrs, holders = self._arg_array(args)
        self._fn(ptrs, _data_ptr(out), self._scratch())
        del holders
        return out

    def __call__(self, args) -> np.ndarray:
        out = np.empty(self.rendered.out_shape, dtype=self._out_dtype)
        return self.run_into(args, out)
