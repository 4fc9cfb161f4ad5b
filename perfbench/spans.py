"""In-memory span recorder with Chrome-trace output and self times.

A span is ``(name, layer, start, end, parent)`` recorded around one
call into a PEPO layer.  Spans stay in memory while the run is timed
and are written once at the end as Chrome trace-event JSON (``"X"``
complete events, loadable in ``chrome://tracing`` or Perfetto), with
the parent span id in ``args``.  :func:`self_times` reads that file
back and charges each span's duration minus its children's to its
layer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Nested spans; a disabled recorder costs one branch per span."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, str, int, int, int]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, layer, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, layer, start, _, parent = self.spans[index]
            self.spans[index] = (name, layer, start, time.perf_counter_ns(), parent)

    def write_chrome_trace(self, path: Path) -> Path:
        pid, tid = os.getpid(), threading.get_ident()
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": tid,
                "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, layer, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return path


def self_times(trace_path: Path) -> dict[str, float]:
    """Milliseconds of self time per layer, computed from a trace file."""
    events = json.loads(trace_path.read_text())["traceEvents"]
    child_us = [0.0] * len(events)
    for event in events:
        parent = event["args"]["parent"]
        if parent >= 0:
            child_us[parent] += event["dur"]
    out: dict[str, float] = {}
    for event in events:
        own = event["dur"] - child_us[event["args"]["id"]]
        out[event["cat"]] = out.get(event["cat"], 0.0) + own / 1000.0
    return out
