"""Span tree bookkeeping and self-time arithmetic."""

import pytest

from harness.spans import Span, Tracer, covered, self_times


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, [(-5, 2), (9, 20)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span(0, "request", 0.0, 10.0),
        Span(1, "serving.submit", 0.0, 1.0, parent=0),
        Span(2, "serving.wait", 1.0, 9.5, parent=0),
        Span(3, "runtime.task", 2.0, 4.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(0.5)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(6.5)
    assert selfs[3] == pytest.approx(2.0)
    # A span's self time plus what its children cover is its duration.
    assert selfs[0] + 1.0 + 8.5 == pytest.approx(spans[0].duration)


def test_context_manager_nests_by_thread_and_add_takes_explicit_parents():
    tracer = Tracer()
    with tracer.span("setup") as outer:
        with tracer.span("models.build") as inner:
            pass
        tracer.add("core.partition", inner.end, inner.end + 1e-6, parent=outer.id)
    with tracer.span("request", request=7) as later:
        pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["models.build"].parent == outer.id
    assert by_name["core.partition"].parent == outer.id
    assert later.parent is None and later.request == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.durations("models.build") == [inner.duration]
