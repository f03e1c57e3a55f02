"""In-memory span recorder for the traced benchmark pass.

The benchmark times every layer *from outside*: it wraps each call into
a public function of ``repro`` in a span ``{id, name, start, end, parent,
workload}``.  Spans stay in a list until the run ends and are written
out once (:meth:`Recorder.dump`), so recording costs two clock reads and
one append per span.  Spans inside the program (``repro.obs``) are a
later issue.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    """Collects the spans of one workload.  Threads may record
    concurrently: each keeps its own stack of open spans, and ids come
    from one atomic counter."""

    def __init__(self, workload: str, clock=time.perf_counter) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[int]:
        """Record one span around the ``with`` body; yields its id.

        ``parent`` defaults to the innermost span open on this thread;
        pass it to hang a worker thread's spans under a span opened by
        the thread that started it.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        ident = next(self._ids)
        record = {"id": ident, "name": name, "start": 0.0, "end": 0.0,
                  "parent": parent, "workload": self.workload}
        self.spans.append(record)
        stack.append(ident)
        record["start"] = self._clock()
        try:
            yield ident
        finally:
            record["end"] = self._clock()
            stack.pop()

    def durations(self, name: str) -> List[float]:
        """Duration in seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"workload": self.workload, "spans": self.spans}, handle)


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals: children that
    ran on different threads may overlap and must not count twice."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per span name, in seconds."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - _covered(children.get(span["id"], []))
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
