"""In-memory span recorder for the traced benchmark run.

A span is one timed call from the benchmark into a layer of sievestats:
name, start, end, parent span and run id.  Spans stay in memory and are
written out once, when the run ends.  `NullRecorder` has the same interface
and records nothing; the untraced pass uses it, so the two passes run the
same code and differ only by the recording.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; the yielded dict takes counts recorded with the span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": index, "name": name, "parent": parent, "run": self.run_id}
        self.spans.append(record)
        counts: dict = {}
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if counts:
                record["counts"] = counts

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def counts(self, name: str, key: str) -> int:
        return sum(s.get("counts", {}).get(key, 0) for s in self.spans if s["name"] == name)

    def write(self, fh) -> None:
        """One JSON line per span."""
        for record in self.spans:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


class NullRecorder:
    @contextmanager
    def span(self, name: str):
        yield {}
