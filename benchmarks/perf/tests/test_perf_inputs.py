"""Everything derived from ``--seed`` is a pure function of it."""

import numpy as np

from harness.inputs import arrival_schedule, chain_graph, make_feeds, rng_for
from repro.models import build_model

STEPS = [(1000.0, 0.5), (2000.0, 0.5)]


def _feed_bytes(seed: int) -> bytes:
    blob = b""
    for graph in (chain_graph(), build_model("wide_deep", tiny=True)):
        feeds = make_feeds(graph, seed, "tiny_closed", graph.name)
        blob += b"".join(feeds[k].tobytes() for k in sorted(feeds))
    return blob


def test_same_seed_gives_byte_identical_inputs():
    assert _feed_bytes(3) == _feed_bytes(3)
    assert _feed_bytes(3) != _feed_bytes(4)


def test_same_seed_gives_identical_arrival_schedule():
    due_a, step_a = arrival_schedule(rng_for(3, "arrivals"), STEPS)
    due_b, step_b = arrival_schedule(rng_for(3, "arrivals"), STEPS)
    due_c, _ = arrival_schedule(rng_for(4, "arrivals"), STEPS)
    assert due_a.tobytes() == due_b.tobytes()
    assert step_a.tobytes() == step_b.tobytes()
    assert due_a.tobytes() != due_c.tobytes()


def test_arrival_schedule_is_ordered_and_fills_each_step():
    due, step = arrival_schedule(rng_for(0, "arrivals"), STEPS)
    assert np.all(np.diff(due) > 0)
    assert due[-1] < 1.0
    for index, (rate, duration) in enumerate(STEPS):
        in_step = due[step == index]
        assert np.all((in_step >= index * 0.5) & (in_step < (index + 1) * 0.5))
        assert abs(len(in_step) - rate * duration) < 5 * (rate * duration) ** 0.5


def test_labels_separate_streams():
    a = rng_for(0, "tiny_closed", "siamese").random(4)
    b = rng_for(0, "tiny_closed", "mtdnn").random(4)
    assert not np.array_equal(a, b)
