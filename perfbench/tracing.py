"""In-memory spans recorded around the benchmark's calls into tribem.

A span is (name, start, end, parent, request id). Spans nest only
through the benchmark's own calls: the package itself is never
instrumented, so a span covers one public function from entry to
return. A traced request is one ``request`` span whose children are
the layer calls it makes. Self time is a span's duration minus the
time its children cover; the benchmark is single-threaded at every
span boundary, so children never overlap and their durations add up.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into Tracer.spans
    request: str
    failed: bool = False
    child_ns: int = 0

    @property
    def self_ns(self):
        return self.end - self.start - self.child_ns

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """Runs calls, recording a span around each one when enabled.

    With ``enabled`` false, :meth:`call` is a plain call, so the
    untraced run pays one extra Python frame per layer call and nothing
    else.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = "setup"

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter_ns(), 0, parent, self.request)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_ns += span.end - span.start

    def self_seconds(self, name):
        """Self times, in seconds, of every span called ``name``."""
        return [s.self_ns * 1e-9 for s in self.spans if s.name == name]

    def layer_counts(self):
        """Per layer: number of calls and number that raised."""
        out = {}
        for s in self.spans:
            calls, failures = out.get(s.layer, (0, 0))
            out[s.layer] = (calls + 1, failures + int(s.failed))
        return out

    def write(self, path, extra):
        """Dump every span plus ``extra`` (environment, metrics) as JSON."""
        spans = [
            {
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "self_ns": s.self_ns,
                "parent": s.parent,
                "request": s.request,
                "failed": s.failed,
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(dict(extra, spans=spans), f)
