"""In-memory span recorder for the benchmark's traced run.

Spans are recorded only from the benchmark's own code: `Tracer.patched`
replaces public functions of the library modules with timing wrappers for the
length of one traced pass and restores the originals afterwards, so nothing
inside ``src/`` is instrumented and untraced passes run the library as is.

A traced pass is single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    tag: str | None
    start: int = 0  # perf_counter_ns
    end: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.tag: str | None = None  # copied into each new span, e.g. "c4"

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.tag)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter_ns()
        try:
            yield s
        finally:
            s.end = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """`fn` recorded as span `name`; `count(args, result)` adds counters."""

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counters.update(count(args, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name, count) for the block."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "tag": s.tag,
                    "start_ns": s.start, "end_ns": s.end, "counters": s.counters,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time in ns of every span in a strictly nested list."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own
