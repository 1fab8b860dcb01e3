"""Spans and counters recorded from outside the library.

A span covers one call (or one tight loop of calls) into a designmine module.
Spans are kept in memory as (name, start, end, parent, pass id) and written
out once the run ends.  The untraced run uses ``NULL`` instead, whose span is
a shared no-op context manager, so untraced passes run the same code with no
bookkeeping.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    """Collects spans and per-pass counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, pass id]
        self.counts = {}  # pass id -> {counter name: value}
        self.pass_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n=1) -> None:
        bucket = self.counts.setdefault(self.pass_id, {})
        bucket[name] = bucket.get(name, 0) + n

    def maximum(self, name: str, value) -> None:
        bucket = self.counts.setdefault(self.pass_id, {})
        bucket[name] = max(bucket.get(name, value), value)

    def self_times(self, pass_id) -> dict:
        """Self time per span name within one pass: each span's duration minus
        the time covered by its direct children (spans nest and never overlap,
        since the benchmark is single-threaded)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, pid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            if pid == pass_id:
                out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "pass"],
                    "spans": self.spans,
                    "counts": {str(k): v for k, v in self.counts.items()},
                },
                fh,
            )


class _NullTracer:
    _noop = contextlib.nullcontext()

    def span(self, name: str):
        return self._noop

    def count(self, name: str, n=1) -> None:
        pass

    def maximum(self, name: str, value) -> None:
        pass


#: Tracer for untraced passes: records nothing.
NULL = _NullTracer()
