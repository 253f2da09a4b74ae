"""The ``system_info`` block written into every result file."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

__all__ = ["THREAD_ENV", "pin_threads", "system_info"]

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to ``min(2, nproc)``.  Only effective before
    NumPy is first imported, which is why ``run.py`` calls it first."""
    threads = min(2, os.cpu_count() or 1)
    for name in THREAD_ENV:
        os.environ[name] = str(threads)
    return threads


def _first_line(command: list[str], cwd: Path | None = None) -> str:
    try:
        done = subprocess.run(
            command, cwd=cwd, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def system_info(root: Path, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cc": _first_line(["cc", "--version"]),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_sha": _first_line(["git", "rev-parse", "HEAD"], cwd=root),
        "seed": seed,
    }
