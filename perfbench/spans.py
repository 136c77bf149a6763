"""Spans recorded from the benchmark side around calls into each layer.

A span is a dict with id, name, start_ns, end_ns and parent (None for a
root).  Times come from ``time.perf_counter_ns``, the system-wide monotonic
clock on Linux, so spans recorded by a child process nest under the
parent's spans.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional


class Span:
    def __init__(self, record: dict) -> None:
        self.record = record

    @property
    def id(self) -> str:
        return self.record["id"]

    @property
    def seconds(self) -> float:
        return (self.record["end_ns"] - self.record["start_ns"]) / 1e9


class SpanRecorder:
    """Records nested spans; ``prefix`` keeps ids unique across processes."""

    def __init__(self, prefix: str, parent: Optional[str] = None) -> None:
        self.trace_id = prefix
        self.prefix = prefix
        self.spans: list[dict] = []
        self._stack: list[Optional[str]] = [parent]

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = {"id": f"{self.prefix}#{len(self.spans)}", "name": name, "parent": self._stack[-1],
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield Span(record)
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns()


def self_times(spans: list[dict]) -> dict[str, int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], []), key=lambda s: s["start_ns"]):
            lo, hi = max(child["start_ns"], cursor), min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = end - start - covered
    return out
