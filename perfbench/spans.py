"""Spans around the calls the benchmark makes into exactwkb.

Jobs call library functions as ``calls(name, fn, *args)``.  The traced
run passes a :class:`Tracer`, which keeps one span per call in memory,
tagged with the id of the job that made it; every untraced run passes
:class:`Untraced`, which only makes the call.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Untraced:
    job = None

    def __call__(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        pass


class Tracer:
    """In-memory spans ``(job id, name, start, end)`` and work counts."""

    def __init__(self):
        self.job = None
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(int)

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.job, name, t0, time.perf_counter()))

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def busy(self) -> tuple[dict, dict]:
        """Summed duration and number of spans, per span name."""
        busy: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for _, name, t0, t1 in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
        return busy, calls
