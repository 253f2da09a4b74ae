"""A burst onto a stack-safe lane, the way an open-loop client sends it.

One thread submits a seeded burst over a small pool of shared inputs
without waiting for any response, into a rejecting admission queue.
Lone requests run on the slot's session, whose planned activation pool
every singleton batch overwrites; full windows run stacked.  Responses
are checked only after the whole burst has resolved, so a response that
a later request's pool reuse could reach would show.
"""

import hashlib
import time

import numpy as np

from repro.core import DuetEngine
from repro.ir import make_inputs, run_graph
from repro.serving import ServingConfig
from repro.testing import elementwise_chain

SEED = 47
N_INPUTS = 16
N_REQUESTS = 480
#: Pause between groups: several linger windows, so a group of one
#: arrives alone and dispatches as a singleton batch.
GAP_S = 8e-3


def _digest(feeds) -> str:
    h = hashlib.sha256()
    for name in sorted(feeds):
        h.update(name.encode())
        h.update(np.ascontiguousarray(feeds[name]).tobytes())
    return h.hexdigest()


def _groups(rng) -> list[int]:
    """Seeded group sizes summing to ``N_REQUESTS``; every fourth
    group is a lone request."""
    sizes: list[int] = []
    while sum(sizes) < N_REQUESTS:
        size = 1 if len(sizes) % 4 == 0 else int(rng.integers(2, 13))
        sizes.append(min(size, N_REQUESTS - sum(sizes)))
    return sizes


def test_burst_over_pooled_inputs_is_answered_bit_identically():
    graph = elementwise_chain(batch=4, width=64, depth=6)
    engine = DuetEngine()
    opt = engine.optimize(graph)
    pool = [make_inputs(graph, seed=k) for k in range(N_INPUTS)]
    digests = [_digest(feeds) for feeds in pool]
    rng = np.random.default_rng(SEED)

    config = ServingConfig(admission="reject", queue_capacity=512)
    with engine.serve(opt, config=config) as frontend:
        assert frontend.lane_info()["stackable"]
        futures = []
        for size in _groups(rng):
            for _ in range(size):
                k = int(rng.integers(N_INPUTS))
                futures.append((k, frontend.submit(pool[k])))
            time.sleep(GAP_S)
        results = [(k, fut.result(60.0)) for k, fut in futures]
        batches = frontend.registry.counter("duet_batches_total")
        requests = frontend.registry.counter("duet_requests_total")
        assert batches.value(model="default", mode="single") > 0
        assert batches.value(model="default", mode="stacked") > 0
        assert requests.value(model="default", outcome="rejected") == 0
        assert requests.value(model="default", outcome="ok") == N_REQUESTS

    assert len(results) == N_REQUESTS
    want = [run_graph(graph, feeds) for feeds in pool]
    for k, result in results:
        assert len(result.outputs) == len(want[k])
        for got, ref in zip(result.outputs, want[k]):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
    assert [_digest(feeds) for feeds in pool] == digests
