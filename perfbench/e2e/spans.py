"""In-memory span recording and self-time arithmetic.

A span is ``(name, start, end, parent, run id)``.  Spans are kept in a list
while the traced unit runs and written out when the benchmark ends.  The
parent of a span is the innermost open span of its own thread; a span
opened by a thread with no open span (a service worker or HTTP handler
thread) is parented to the unit's root span, because the traced unit is
what caused it.  A span's self time is its duration minus the part of its
interval that its children cover, so the self times of every span of a
unit, the root's included, add up to the unit's wall time.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, index: int, name: str, start: float,
                 parent: Optional[int], run: str) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"i": self.index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                **self.attrs}


class Tracer:
    """Records spans from any thread; one root span per traced unit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].index
        else:
            parent = self._root.index if self._root is not None else None
        run = self._root.run if self._root is not None else ""
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), parent,
                        run)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def begin_unit(self, run: str) -> Span:
        """Open the root span of one traced unit of work."""
        with self._lock:
            root = Span(len(self.spans), "unit", time.perf_counter(), None,
                        run)
            self.spans.append(root)
        self._root = root
        self._stack().append(root)
        return root

    def end_unit(self) -> Span:
        root = self._root
        self.close(root)
        self._root = None
        return root

    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.name == "unit"]

    def write(self, path: str, header: dict) -> None:
        """Write the spans as JSON lines after a header line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True)
                             + "\n")


def covered(intervals: Iterable[Tuple[float, float]], low: float,
            high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span index."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.index: span.duration - covered(
                children.get(span.index, ()), span.start, span.end)
            for span in spans}
