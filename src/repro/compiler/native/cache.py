"""Signature-keyed on-disk cache of compiled native kernels.

Every rendered kernel gets a stable signature — a SHA-256 over the
renderer version, the toolchain fingerprint, the GEMM tile variant, and
a *locally renamed* description of the fusion group (op sequence, sorted
attrs, input/output shapes and dtypes).  Local renaming means two
structurally identical groups from differently-named graphs share one
cache entry, and the signature deliberately excludes the target name so
a "cpu" and a "gpu" placement of the same kernel dedupe to one shared
object.  The fingerprint says where an entry was built and timed:
objects are compiled with ``-march=native`` and backend decisions are
wall-clock measurements, so a cache directory carried to another host or
toolchain resolves to fresh signatures instead of trusting either.

Layout under the cache root::

    <sig>.c          rendered source (kept for debugging / goldens)
    <sig>.so         compiled shared object (atomically renamed in)
    <base>.meta.json the contest's decision for one kernel:
                     {"backend": "native" | "numpy", "tile": [mr, nr],
                      "timings_s": {"4x4": s, ..., "numpy": s}, "rounds": n}

One signature resolves one way per cache directory: the decision is
looked up in the in-process memo, then the meta file, and only then
contested (``NativeCache.lock`` is held across a module's whole
resolution, so two threads never contest the same signature).

Corrupted or truncated ``.so`` entries are evicted and rebuilt on load
failure rather than crashing; writes go through a temp file + ``rename``
so a killed process never leaves a half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from repro.compiler.fusion import FusionGroup
from repro.compiler.native.renderer import RENDERER_VERSION
from repro.compiler.native.runtime import toolchain_fingerprint
from repro.ir.graph import Graph

__all__ = [
    "CacheStats",
    "NativeCache",
    "default_cache_dir",
    "kernel_signature",
]

ENV_CACHE_DIR = "REPRO_NATIVE_CACHE_DIR"


def kernel_signature(
    graph: Graph,
    group: FusionGroup,
    external: Sequence[str],
    renderer_version: int = RENDERER_VERSION,
) -> str:
    """Stable base signature of a fusion group (tile-independent).

    Node ids are renamed to local indices (``e<k>`` for the k-th external
    input, ``n<k>`` for the k-th member) so the signature depends only on
    group *structure*, never on the ids a particular graph happened to
    assign.
    """
    local: dict[str, str] = {nid: f"e{k}" for k, nid in enumerate(external)}
    for k, nid in enumerate(group.node_ids):
        local[nid] = f"n{k}"
    parts = [f"rv{renderer_version}", toolchain_fingerprint()]
    for k, nid in enumerate(external):
        ty = graph.node(nid).ty
        parts.append(f"e{k}={ty.dtype.name}[{','.join(map(str, ty.shape))}]")
    for nid in group.node_ids:
        node = graph.node(nid)
        ty = node.ty
        attrs = ",".join(f"{k}={v!r}" for k, v in sorted(node.attrs.items()))
        ins = ",".join(local[i] for i in node.inputs)
        parts.append(
            f"{node.op}({ins};{attrs})->{ty.dtype.name}"
            f"[{','.join(map(str, ty.shape))}]"
        )
    if group.output_id != group.node_ids[-1]:
        parts.append(f"out={local[group.output_id]}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:32]


def variant_signature(base_sig: str, tile: tuple[int, int]) -> str:
    return f"{base_sig}_t{tile[0]}x{tile[1]}"


@dataclass
class CacheStats:
    """Counters for cache behaviour; the property tests and the warm-run
    zero-compile assertion read these."""

    compiles: int = 0
    disk_hits: int = 0
    memo_hits: int = 0
    evictions: int = 0
    fallbacks: int = 0
    autotunes: int = 0
    contests: int = 0
    numpy_wins: int = 0

    def snapshot(self) -> dict[str, int]:
        return asdict(self)


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "native"


@dataclass
class NativeCache:
    """One cache root; process-wide loaded-library memo rides on top of
    the on-disk store (a ``CDLL`` must stay referenced for the life of
    any kernel that uses it)."""

    root: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._loaded: dict[str, object] = {}
        self._decisions: dict[str, tuple[str, tuple[int, int]]] = {}
        #: Held across one module's whole resolution (lookups, compile
        #: batch, contests) by :func:`build_native_kernels`.
        self.lock = threading.RLock()

    # -- paths ---------------------------------------------------------
    def source_path(self, sig: str) -> Path:
        return self.root / f"{sig}.c"

    def object_path(self, sig: str) -> Path:
        return self.root / f"{sig}.so"

    def meta_path(self, base_sig: str) -> Path:
        return self.root / f"{base_sig}.meta.json"

    # -- shared objects ------------------------------------------------
    def get_library(self, sig: str):
        """Loaded CDLL for ``sig``, or None.  A library that fails to
        load (truncated/corrupted entry) is evicted so the caller
        rebuilds it."""
        import ctypes

        lib = self._loaded.get(sig)
        if lib is not None:
            self.stats.memo_hits += 1
            return lib
        path = self.object_path(sig)
        if not path.exists():
            return None
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            self.evict(sig)
            return None
        self.stats.disk_hits += 1
        self._loaded[sig] = lib
        return lib

    def store(self, sig: str, source: str, so_bytes_path: Path):
        """Atomically install a freshly compiled entry and load it."""
        import ctypes

        self.root.mkdir(parents=True, exist_ok=True)
        self._atomic_write(self.source_path(sig), source.encode())
        os.replace(so_bytes_path, self.object_path(sig))
        lib = ctypes.CDLL(str(self.object_path(sig)))
        self._loaded[sig] = lib
        self.stats.compiles += 1
        return lib

    def evict(self, sig: str) -> None:
        self.stats.evictions += 1
        self._loaded.pop(sig, None)
        for path in (self.object_path(sig), self.source_path(sig)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    # -- contest decisions ---------------------------------------------
    def decision(self, base_sig: str) -> tuple[str, tuple[int, int]] | None:
        """The settled ``(backend, tile)`` for a kernel: in-process memo,
        then the meta file; None when it has not been contested here."""
        hit = self._decisions.get(base_sig)
        if hit is None:
            meta = self.read_meta(base_sig)
            try:
                backend = meta["backend"]
                mr, nr = meta["tile"]
                hit = (backend, (int(mr), int(nr)))
            except (KeyError, TypeError, ValueError):
                return None
            if backend not in ("native", "numpy"):
                return None
            self._decisions[base_sig] = hit
        return hit

    def decide(
        self,
        base_sig: str,
        backend: str,
        tile: tuple[int, int],
        timings_s: dict[str, float],
        rounds: int,
    ) -> None:
        """Settle a contest's outcome: memo, and the meta file so later
        processes resolve the same way (an unwritable cache directory
        costs them a contest of their own, not this one its result)."""
        self._decisions[base_sig] = (backend, tuple(tile))
        try:
            self.write_meta(
                base_sig,
                {
                    "backend": backend,
                    "tile": list(tile),
                    "timings_s": timings_s,
                    "rounds": rounds,
                },
            )
        except OSError:
            pass

    def read_meta(self, base_sig: str) -> dict | None:
        path = self.meta_path(base_sig)
        try:
            return json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def write_meta(self, base_sig: str, meta: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self._atomic_write(self.meta_path(base_sig), json.dumps(meta, indent=2).encode())

    # -- internals -----------------------------------------------------
    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
