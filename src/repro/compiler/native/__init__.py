"""Native C backend for fused kernels.

``build_native_kernels`` is the single entry the lowering pass calls,
once per module, with every fusion group and the NumPy closure lowering
has already built for it.  The flow::

    render every group (pure Python; NativeUnsupported -> rejected)
      -> base signature (op sequence + shapes + dtypes + renderer
         version + toolchain fingerprint)
      -> decision lookup: memo -> <base_sig>.meta.json
           numpy won here before  -> keep the closure, load nothing
           native won, tile known -> that one variant is needed
           undecided              -> every candidate variant is needed
             (the default tile; every GEMM_TILES entry with autotune)
      -> library lookup per needed signature (loaded memo -> on-disk .so)
      -> ONE concurrent batch of ``cc`` runs for the signatures found
         nowhere, installed into the cache on the calling thread
      -> contests for the undecided kernels, serially, after the last
         compiler process has exited: C variants against the NumPy
         closure, winner and timings persisted; where C beat a NumPy
         time of a millisecond or more the contest is run once more
         after the module's others, and that result stands
      -> NativeKernel (ctypes callable with the NumPy-closure contract)
         where C won, None where NumPy did

A pinned ``NativeOptions.tile`` means the caller chose the variant:
nothing is timed or looked up, and every group the renderer accepts runs
rendered C.  That is what the differential oracle and the codegen pins
build with, so every renderer stays under test where it loses too.

Every failure mode — unsupported op, no system compiler, a compiler that
fails, hangs or cannot start, corrupted cache entry — leaves that kernel
on its NumPy closure.  Nothing in the engine above this line ever sees a
native-backend exception.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.compiler.fusion import FusionGroup
from repro.compiler.native.autotune import GEMM_TILES, run_contest
from repro.compiler.native.cache import (
    CacheStats,
    NativeCache,
    kernel_signature,
    variant_signature,
)
from repro.compiler.native.policy import (
    EXACT_OPS,
    ULP_BUDGETS,
    graph_ulp_budget,
    max_ulp_diff,
    ulp_close,
)
from repro.compiler.native.renderer import (
    DEFAULT_TILE,
    RENDERER_VERSION,
    NativeUnsupported,
    RenderedKernel,
    render_group,
)
from repro.compiler.native.runtime import (
    NativeBuildError,
    NativeKernel,
    compile_source,
    find_compiler,
    native_available,
    toolchain_fingerprint,
)
from repro.ir.graph import Graph

__all__ = [
    "EXACT_OPS",
    "GEMM_TILES",
    "RENDERER_VERSION",
    "ULP_BUDGETS",
    "CacheStats",
    "NativeCache",
    "NativeBuildError",
    "NativeKernel",
    "NativeOptions",
    "NativeUnsupported",
    "RenderedKernel",
    "build_native_kernels",
    "default_native_cache",
    "find_compiler",
    "graph_ulp_budget",
    "kernel_signature",
    "max_ulp_diff",
    "native_available",
    "render_group",
    "toolchain_fingerprint",
    "ulp_close",
]

_shared_cache: NativeCache | None = None
_warned_no_cc = False


def default_native_cache() -> NativeCache:
    """Process-wide cache instance rooted at ``REPRO_NATIVE_CACHE_DIR``
    (or ``$XDG_CACHE_HOME/repro/native``)."""
    global _shared_cache
    if _shared_cache is None:
        _shared_cache = NativeCache()
    return _shared_cache


def reset_default_cache() -> None:
    """Testing hook: forget the shared cache instance (e.g. after the
    env var changed)."""
    global _shared_cache
    _shared_cache = None


@dataclass
class NativeOptions:
    """Knobs for the native build path, threaded down from ``Compiler``.

    By default each kernel the renderer accepts is contested once per
    cache directory: rendered C at the default tile against the NumPy
    closure, the faster one runs.  ``autotune`` enters every
    ``GEMM_TILES`` variant of a GEMM-bearing kernel in that contest.
    ``tile`` pins the variant instead: nothing is timed, and rendered C
    runs wherever the renderer accepts the group.
    """

    cache: NativeCache | None = None
    autotune: bool = False
    tile: tuple[int, int] | None = None

    def resolve_cache(self) -> NativeCache:
        return self.cache if self.cache is not None else default_native_cache()


def _warn_once_no_cc() -> None:
    global _warned_no_cc
    if not _warned_no_cc:
        _warned_no_cc = True
        warnings.warn(
            "no C compiler found (set REPRO_CC or install cc/gcc/clang); "
            "backend='native' falls back to NumPy kernels",
            RuntimeWarning,
            stacklevel=3,
        )


def _compile_batch(
    cache: NativeCache, missing: dict[str, RenderedKernel]
) -> dict[str, object]:
    """Compile every missing signature, all at once, and install the
    results; returns signature -> loaded library for the ones that
    built.  A failed job costs its own kernel only."""
    if not missing:
        return {}

    def job(rendered: RenderedKernel):
        try:
            return compile_source(rendered.source, cache.root)
        except NativeBuildError:
            return None

    if len(missing) == 1:
        built = [job(r) for r in missing.values()]
    else:
        workers = min(len(missing), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            built = list(pool.map(job, missing.values()))
    libs: dict[str, object] = {}
    for (sig, rendered), so_path in zip(missing.items(), built):
        if so_path is None:
            continue
        try:
            libs[sig] = cache.store(sig, rendered.source, so_path)
        except OSError:  # unwritable cache root, object that will not load
            so_path.unlink(missing_ok=True)
            cache.evict(sig)
    return libs


@dataclass
class _Job:
    """One renderable fusion group on its way through the batch."""

    index: int
    base_sig: str
    arg_specs: list[tuple[tuple[int, ...], str]]
    closure: Callable[[Sequence[np.ndarray]], np.ndarray]
    #: tile -> (rendered variant, its cache signature), for every
    #: variant this kernel may still turn out to need.
    needed: dict[tuple[int, int], tuple[RenderedKernel, str]]


def build_native_kernels(
    graph: Graph,
    groups: Sequence[tuple[FusionGroup, Sequence[str], Callable]],
    options: NativeOptions | None = None,
    clock: Callable[[], float] | None = None,
) -> list[tuple[NativeKernel | None, str]]:
    """Resolve every fusion group of one module to its backend.

    ``groups`` holds ``(group, external input ids, NumPy closure)`` per
    kernel.  Returns, in the same order, the native kernel (``None`` to
    keep the closure) and why: ``"native"``, ``"native: pinned"``,
    ``"numpy: lost contest"``, ``"numpy: renderer rejected"``,
    ``"numpy: build failed"`` or ``"numpy: no compiler"``.  ``clock``
    is the contests' timer (see :func:`run_contest`).
    """
    options = options or NativeOptions()
    if not native_available():
        _warn_once_no_cc()
        return [(None, "numpy: no compiler")] * len(groups)
    cache = options.resolve_cache()
    pinned = options.tile is not None
    out: list[tuple[NativeKernel | None, str]] = [
        (None, "numpy: renderer rejected")
    ] * len(groups)

    with cache.lock:
        jobs: list[_Job] = []
        for index, (group, external, closure) in enumerate(groups):
            base_sig = kernel_signature(graph, group, external)
            decision = None if pinned else cache.decision(base_sig)
            if decision is not None and decision[0] == "numpy":
                out[index] = (None, "numpy: lost contest")
                continue
            first = options.tile or (decision[1] if decision else DEFAULT_TILE)
            try:
                probe = render_group(graph, group, external, tile=first)
            except NativeUnsupported:
                cache.stats.fallbacks += 1
                continue
            searching = decision is None and not pinned and options.autotune
            needed = {}
            for tile in GEMM_TILES if searching and probe.tunable else (first,):
                rendered = (
                    probe
                    if tile == first
                    else render_group(graph, group, external, tile=tile)
                )
                sig = (
                    variant_signature(base_sig, tile)
                    if rendered.tunable
                    else base_sig
                )
                needed[tile] = (rendered, sig)
            arg_specs = [
                (tuple(graph.node(nid).ty.shape), graph.node(nid).ty.dtype.name)
                for nid in external
            ]
            jobs.append(_Job(index, base_sig, arg_specs, closure, needed))

        # One library lookup per distinct signature; whatever is neither
        # loaded nor on disk is compiled in one concurrent batch, and no
        # contest starts until the batch's last compiler has exited.
        libs: dict[str, object] = {}
        missing: dict[str, RenderedKernel] = {}
        for job in jobs:
            for rendered, sig in job.needed.values():
                if sig not in libs and sig not in missing:
                    lib = cache.get_library(sig)
                    if lib is None:
                        missing[sig] = rendered
                    else:
                        libs[sig] = lib
        libs.update(_compile_batch(cache, missing))

        def load(job: _Job) -> dict[tuple[int, int], NativeKernel]:
            return {
                tile: NativeKernel(rendered=rendered, signature=sig, library=libs[sig])
                for tile, (rendered, sig) in job.needed.items()
                if sig in libs
            }

        def contest(job: _Job) -> bool:
            """Settle one kernel; True when it asks to be run again."""
            variants = load(job)
            if not variants:
                return False
            _, _, confirm = run_contest(
                job.base_sig, cache, variants, job.closure, job.arg_specs, clock
            )
            return confirm

        if not pinned:
            # A twin of a kernel earlier in the module may have settled
            # its signature since the first lookup, hence the second.
            again = [
                job
                for job in jobs
                if cache.decision(job.base_sig) is None and contest(job)
            ]
            for job in again:
                contest(job)

        for job in jobs:
            variants = load(job)
            if not variants:
                cache.stats.fallbacks += 1
                out[job.index] = (None, "numpy: build failed")
            elif pinned:
                (kernel,) = variants.values()
                out[job.index] = (kernel, "native: pinned")
            else:
                backend, tile = cache.decision(job.base_sig)
                if backend == "numpy":
                    out[job.index] = (None, "numpy: lost contest")
                else:
                    # Variants are bit-identical, so any of them honours a
                    # decision another process reached on a tile not built here.
                    kernel = variants.get(tile) or next(iter(variants.values()))
                    out[job.index] = (kernel, "native")
    return out
