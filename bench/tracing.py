"""Spans recorded from the benchmark's side around calls into allocmap.

The library is not changed. For one call, the benchmark replaces the names
that allocmap's modules look up at call time (``allocmap.pipeline.mds_embed``,
``allocmap.dataio.write_dataset``, ...) with wrappers that record a span, and
puts the originals back afterwards. Spans stay in memory until the benchmark
writes them out at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` returns the
        span's work counts and runs after the span has closed."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                sp.counts.update(count(args, kwargs, result))
            return result

        return traced

    def run(self, run_id: str) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.run_id == run_id]


@contextmanager
def replaced(replacements):
    """Set ``(owner, attribute, value)`` triples for the duration of a block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def self_times(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """A span's duration minus the durations of its direct children. Calls in
    one process are sequential, so children never overlap."""
    out = {i: s.duration for i, s in spans}
    for _, s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


def layer_spans(spans: list[tuple[int, Span]], layer: str) -> list[Span]:
    """Spans of ``layer`` not nested in another span of the same layer, so a
    layer calling itself is not counted twice."""
    by_idx = dict(spans)
    return [
        s
        for _, s in spans
        if s.layer == layer and (s.parent not in by_idx or by_idx[s.parent].layer != layer)
    ]
