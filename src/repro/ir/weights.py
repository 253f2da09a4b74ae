"""One store of generated model weights, filled in place in one batch.

A constant's data is a pure function of ``(seed, const id, shape, dtype,
initializer, attrs)``: its generator is derived from the seed and a stable
digest of the id (:func:`param_rng`), and :meth:`Node.materialize` draws
from nothing else.  So every module lowered from one model — the plan's
subgraph modules, the whole-model modules of the degradation plans, the
profiler's — needs the same arrays, and a :class:`WeightStore` keyed by
exactly that tuple holds each of them once.  The Siamese towers' shared
weights, for one, are then one array read by both tower modules.

``LITERAL`` constants are never stored: their payload travels on the node,
and two graphs may carry different payloads under one folded id.

Stored arrays stay writable.  No kernel writes its arguments, which a test
pins by digest; a read-only array would cost the native backend's pointer
fast path about 2 µs per argument on every call.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.ir.node import FILL_CHUNK, Initializer, Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.graph import Graph

__all__ = ["WeightStore", "materialize_batch", "param_rng", "weight_key"]

#: A batch of fewer elements than this fills on the calling thread: at
#: about 10 ns per element it takes ~10 ms, where starting threads stops
#: paying for itself.  Tiny plans therefore start no threads.
INLINE_ELEMENTS = 1 << 20


def param_rng(seed: int, node_id: str) -> np.random.Generator:
    """The generator constant ``node_id`` draws from under ``seed``.

    The id is mixed in through a stable digest: ``hash(str)`` is
    randomized per process, which would make seeded weights differ
    between runs.
    """
    digest = hashlib.sha256(node_id.encode("utf-8")).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:4], "little")])
    )


def weight_key(node: Node, seed: int) -> tuple | None:
    """Everything a generated constant's data depends on; ``None`` for a
    ``LITERAL``, whose data is its payload."""
    if node.init is Initializer.LITERAL:
        return None
    return (
        seed,
        node.id,
        tuple(node.ty.shape),
        node.ty.dtype.name,
        node.init,
        repr(sorted(node.attrs.items())),
    )


def materialize_batch(jobs: Sequence[tuple[Node, int]]) -> list[np.ndarray]:
    """Generate each ``(const node, seed)`` job's array; returned in job order.

    Every destination, and every worker's float64 staging buffer, is
    allocated here on the calling thread: memory a worker thread
    allocates lands in that thread's malloc arena, where it stays after
    the worker exits and moves the process's peak from run to run.
    Workers only fill, each taking the largest job left, on
    ``min(len(jobs), os.cpu_count())`` threads counting the calling one —
    or inline when the batch holds fewer than :data:`INLINE_ELEMENTS`
    elements.
    """
    outs = [
        np.empty(node.ty.shape, dtype=node.ty.dtype.to_numpy())
        for node, _ in jobs
    ]
    pending: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in sorted(range(len(jobs)), key=lambda i: -outs[i].size):
        pending.put(i)
    inline = sum(o.size for o in outs) < INLINE_ELEMENTS
    workers = 1 if inline else min(len(jobs), os.cpu_count() or 1)
    scratches = [np.empty(FILL_CHUNK) for _ in range(workers)]

    def drain(scratch: np.ndarray) -> None:
        while True:
            try:
                i = pending.get_nowait()
            except queue.Empty:
                return
            node, seed = jobs[i]
            node.materialize(param_rng(seed, node.id), out=outs[i], scratch=scratch)

    if workers == 1:
        drain(scratches[0])
        return outs
    # The calling thread is one of the workers: every extra thread brings
    # a malloc arena of its own into the process's rotation.
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain, s) for s in scratches[1:]]
        drain(scratches[0])
        for helper in helpers:
            helper.result()  # re-raises a helper's exception
    return outs


class WeightStore:
    """Generated constants by :func:`weight_key`, each held once.

    A :class:`~repro.compiler.pipeline.Compiler` owns one, and every
    module it lowers reads its parameters from it.  :meth:`load` fills
    whatever a set of graphs is missing in one :func:`materialize_batch`.
    Nothing is ever evicted, so ``len(store)`` counts every miss so far.
    Thread-safe: a lock serializes loads, so two sessions opened at once
    never generate one weight twice.
    """

    def __init__(self) -> None:
        self._arrays: dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._arrays)

    def arrays(self) -> dict[tuple, np.ndarray]:
        """A snapshot of the stored arrays by key."""
        with self._lock:
            return dict(self._arrays)

    def load(self, graphs: Iterable[tuple["Graph", int]]) -> None:
        """Generate every constant of these ``(graph, seed)`` pairs that
        the store lacks, all in one batch."""
        with self._lock:
            missing: dict[tuple, tuple[Node, int]] = {}
            for graph, seed in graphs:
                for node in graph.const_nodes():
                    key = weight_key(node, seed)
                    if key is not None and key not in self._arrays:
                        missing.setdefault(key, (node, seed))
            if not missing:
                return
            arrays = materialize_batch(list(missing.values()))
            self._arrays.update(zip(missing, arrays))

    def params(self, graph: "Graph", seed: int) -> dict[str, np.ndarray]:
        """Const id -> array for ``graph`` under ``seed``, loading what is
        missing first; literals come from their nodes."""
        self.load([(graph, seed)])
        return {
            node.id: (
                node.materialize(None)
                if node.init is Initializer.LITERAL
                else self._arrays[weight_key(node, seed)]
            )
            for node in graph.const_nodes()
        }
