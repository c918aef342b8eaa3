"""In-memory spans around the benchmark's calls into mcpursuit's layers.

A traced run wraps each call into a layer in a span holding its name,
start, end, parent, workload and trial. Spans stay in memory and are
written out once, when the run ends. A layer's self time is the time its
spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    trial: int | None


class Tracer:
    """Records spans; nesting follows the order in which spans open."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trial: int | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                   self.workload, trial)
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, start: int = 0, end: int | None = None) -> dict[str, float]:
        """Total self time per span name over spans[start:end], a slice
        that holds whole span trees."""
        spans = self.spans[start:end]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals = defaultdict(float)
        for s in spans:
            totals[s.name] += s.end - s.start - child_time[s.id]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


class NullTracer:
    """Same interface, records nothing: the untraced runs use this."""

    workload = ""

    def span(self, name: str, trial: int | None = None):
        return contextlib.nullcontext()
