"""Spans and counters recorded around calls into the program's layers.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, and ``op`` the operation id (``SETUP`` and
``CHECK`` mark spans outside the timed operations). Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from time import perf_counter

SETUP = -1
CHECK = -2


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.op = SETUP
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def busy(self, name: str, op_filter) -> float:
        """Total seconds in spans called ``name`` whose op passes the filter."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and op_filter(s[4]))


class NullTracer:
    """Calls straight through; used where a run records no spans."""

    op = SETUP

    def call(self, name: str, fn, *args):
        return fn(*args)

    def count(self, name: str, value: int) -> None:
        pass


class PeakRecorder:
    """The highest ``tracemalloc`` peak of any single call, per span name,
    above the memory held when that call started. Calls must not nest."""

    def __init__(self) -> None:
        self.peaks: Counter[str] = Counter()

    def call(self, name: str, fn, *args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            self.peaks[name] = max(self.peaks[name], peak)

    def count(self, name: str, value: int) -> None:
        pass
