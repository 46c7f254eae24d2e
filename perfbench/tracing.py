"""In-memory spans for the traced run.

A span records name, start, end, its parent span and a trace id shared by
all spans under one top-level span (one solve or verify of one case).  Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    trace_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        trace_id = parent.trace_id if parent else span_id
        sp = Span(span_id, trace_id, parent.span_id if parent else None, name, self.clock(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def to_records(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent_id is not None:
            children.setdefault(sp.parent_id, []).append((sp.start, sp.end))
    return {sp.span_id: sp.duration - _covered(sp.start, sp.end, children.get(sp.span_id, []))
            for sp in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, dict]:
    """Count, total duration and total self time per span name, in seconds."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for sp in spans:
        row = out.setdefault(sp.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += sp.duration
        row["self_s"] += own[sp.span_id]
    return out
