"""The per-kernel contest: which implementation of a fused kernel runs.

The candidates for one kernel are its rendered C variants — the register
tile (MR, NR) of the GEMM microkernel is the search space; a kernel
without a GEMM has one variant — and the NumPy closure lowering has
already built.  Every C variant accumulates each output element over
``k`` sequentially, so all variants of one kernel are bit-identical: the
tile choice can never change numerics, only speed.  The backend choice
can (within the ULP policy), which is why it is made once per cache
directory and then read back, never re-measured.

The decision and its measured timings persist in the cache as
``<base_sig>.meta.json``; a warm session reads the meta, loads only the
winning variant (nothing at all when NumPy won), and performs zero
re-timing.  This module owns the only timing loop of the native layer.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.compiler.kernel import CompiledKernel
from repro.compiler.native.cache import NativeCache
from repro.compiler.native.runtime import NativeKernel

__all__ = ["GEMM_TILES", "run_contest"]

#: Candidate (MR, NR) register tiles.  The first entry is the default
#: used when autotuning is off.
GEMM_TILES: tuple[tuple[int, int], ...] = ((4, 4), (2, 8), (8, 2), (8, 8), (4, 8))

#: Timings key of the NumPy closure (C variants are keyed ``"MRxNR"``).
NUMPY = "numpy"

#: Interleaved timing rounds: every candidate still in the running is
#: visited once per round and keeps its per-round minimum, so a
#: transient stall (CI neighbour, frequency throttle) hurts one sample
#: of every candidate instead of every sample of one candidate.
_TUNE_ROUNDS = 5

#: Target wall time per timing sample; fast kernels batch enough calls
#: to reach it so timer resolution and call overhead don't decide.
_TARGET_SAMPLE_S = 1e-4

#: A candidate whose cold first call took this many times the fastest
#: cold call, and at least the floor, is out without a warm sample: no
#: page-in or allocator warm-up explains that gap, and one more call of a
#: kernel that slow is what makes a contest expensive.
_COLD_RATIO = 2.0
_COLD_FLOOR_S = 1e-3

#: After a round, a candidate this far behind the leader is out.
_LEAD_RATIO = 1.3


def _sample(arg_specs: Sequence[tuple[tuple[int, ...], str]], seed: int = 0):
    """Deterministic synthetic inputs for timing: normal floats, zero
    ints (keeps embedding-style index args trivially in range)."""
    rng = np.random.default_rng(seed)
    out = []
    for shape, dtype_name in arg_specs:
        dt = np.dtype(dtype_name)
        if dt in (np.float32, np.float64):
            # Drawn at width: weight-sized arguments make this a visible
            # share of a cold start otherwise.
            out.append(rng.standard_normal(shape, dtype=dt))
        elif np.issubdtype(dt, np.floating):
            out.append(rng.standard_normal(shape).astype(dt))
        elif dt == np.bool_:
            out.append(rng.integers(0, 2, size=shape).astype(dt))
        else:
            out.append(np.zeros(shape, dtype=dt))
    return out


def _time_candidates(
    runners: Mapping[str, Callable[[], object]],
    clock: Callable[[], float],
) -> tuple[dict[str, float], list[str], int]:
    """Per-call time of each candidate, sampled only until decided.

    One cold call each (page-in, icache, calibration), in ``runners``
    order; then interleaved round-robin rounds over the candidates the
    thresholds above have not put out.  Returns every candidate's best
    time (its cold call, for one that never reached a round), the
    candidates still standing, and the number of rounds run.
    """
    best: dict[str, float] = {}
    for name, run in runners.items():
        t0 = clock()
        run()
        best[name] = clock() - t0
    fastest = min(best.values())
    alive = [
        name
        for name, t in best.items()
        if t < _COLD_FLOOR_S or t < _COLD_RATIO * fastest
    ]
    done = 0
    if len(alive) > 1:
        iters = max(1, min(64, int(_TARGET_SAMPLE_S / max(fastest, 1e-9))))
        best.update(dict.fromkeys(alive, float("inf")))
        while len(alive) > 1 and done < _TUNE_ROUNDS:
            for name in alive:
                run = runners[name]
                t0 = clock()
                for _ in range(iters):
                    run()
                best[name] = min(best[name], (clock() - t0) / iters)
            done += 1
            lead = min(best[name] for name in alive)
            alive = [name for name in alive if best[name] < _LEAD_RATIO * lead]
    return best, alive, done


def run_contest(
    base_sig: str,
    cache: NativeCache,
    variants: Mapping[tuple[int, int], NativeKernel],
    closure: CompiledKernel,
    arg_specs: Sequence[tuple[tuple[int, ...], str]],
    clock: Callable[[], float] | None = None,
) -> tuple[str, tuple[int, int], bool]:
    """Time one kernel's C ``variants`` (at least one) against its NumPy
    kernel ``closure``; settle and return ``(backend, tile, confirm)``.

    Each candidate is timed the way a session runs it: a C kernel writes
    a preallocated output through ``run_into``; the NumPy kernel does too
    when its last op has an ``out=`` form, and otherwise computes and its
    result is copied into that buffer, as the arena copies it in.  The
    best-of samples decide, NumPy keeps a tie, and ``tile`` is the
    fastest C variant whichever backend won.  ``clock`` is the timer
    (``time.perf_counter``); candidates are visited in ``variants``
    order with the closure last, so a test can script it.

    ``confirm`` asks the caller to run this contest once more after the
    module's other contests and let that result stand: rendered C beat a
    NumPy time of a millisecond or more.  A contest spans milliseconds,
    and the closure's heavy calls can all fall in a spell where the OS
    has the BLAS worker threads badly placed (seconds long early in a
    process, 2-10x on a GEMM); a decision is kept for the life of the
    cache directory, so the one against BLAS gets a second look at
    another time.
    """
    args = _sample(arg_specs)
    rendered = next(iter(variants.values())).rendered
    out = np.empty(rendered.out_shape, dtype=np.dtype(rendered.out_dtype))
    out.fill(0)  # touch every page before anything is timed writing it

    if closure.run_into is not None:
        run_numpy = partial(closure.run_into, args, out)
    else:

        def run_numpy() -> None:
            np.copyto(out, closure(args))

    runners: dict[str, Callable[[], object]] = {
        f"{mr}x{nr}": partial(kernel.run_into, args, out)
        for (mr, nr), kernel in variants.items()
    }
    names = dict(zip(runners, variants))
    runners[NUMPY] = run_numpy
    # Synthetic variance/gate inputs make sqrt and exp warn; the values
    # are never read.
    with np.errstate(all="ignore"):
        # Untimed: the closure's first call at a shape also grows the
        # allocator's pools for its temporaries and may start the BLAS
        # threads, which can cost more than the gap that would put it
        # out on the spot.  A C kernel's first call pays a page-in.
        run_numpy()
        best, alive, rounds = _time_candidates(
            runners, clock or time.perf_counter
        )

    winner = min(alive, key=lambda name: (best[name], name != NUMPY))
    backend = "numpy" if winner == NUMPY else "native"
    tile = names[min(names, key=best.get) if winner == NUMPY else winner]
    cache.decide(base_sig, backend, tile, best, rounds)
    cache.stats.contests += 1
    cache.stats.numpy_wins += backend == "numpy"
    cache.stats.autotunes += len(variants) > 1
    return backend, tile, backend == "native" and best[NUMPY] >= _COLD_FLOOR_S
