"""In-memory span recording from the driver side of each layer boundary.

A span is ``(id, name, start, end, parent, request)`` on the
``time.perf_counter`` clock.  Spans are kept in a list and written out
once, when the benchmark ends; nothing is flushed mid-run.  A layer's
*self time* is its span's duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

__all__ = ["Span", "Tracer", "covered", "self_times"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; nesting on one thread is implicit via ``span()``,
    spans closed on another thread pass ``parent`` explicitly to ``add``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request: int | None = None,
    ) -> int:
        with self._lock:
            span = Span(len(self.spans), name, start, end, parent, request)
            self.spans.append(span)
        return span.id

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[Span]:
        stack = self._stack.__dict__.setdefault("ids", [])
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(len(self.spans), name, 0.0, 0.0, parent, request)
            self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path, meta: dict) -> None:
        selfs = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "clock": "time.perf_counter seconds",
            "spans": [dict(asdict(s), self_s=selfs[s.id]) for s in self.spans],
        }
        path.write_text(json.dumps(payload))


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(s.start, s.end, children.get(s.id, []))
        for s in spans
    }
