"""In-memory spans for the traced benchmark pass.

Spans are recorded around calls the benchmark makes into each package
module.  A span's layer is the part of its name before the first dot;
``bench`` spans are the benchmark's own grouping (set-ups, replicates,
samples, probes).  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: str  # the set-up, replicate or sample the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; a disabled tracer records nothing and costs a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    def span(self, name: str, op: str | None = None, **attrs):
        if not self.enabled:
            return nullcontext()
        return self._span(name, op, attrs)

    @contextmanager
    def _span(self, name, op, attrs):
        parent = self._stack[-1] if self._stack else -1
        if op is None:
            if parent < 0:
                raise ValueError(f"root span {name!r} needs an op id")
            op = self.spans[parent].op
        index = len(self.spans)
        span = Span(name=name, start=time.perf_counter(), end=float("nan"),
                    parent=parent, op=op, attrs=attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        """Per span: its duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def nesting_errors(self) -> list:
        """Spans that lie outside their parent's interval or change op id."""
        errors = []
        for i, s in enumerate(self.spans):
            if not s.end >= s.start:
                errors.append(f"span {i} {s.name} has no valid end")
            if s.parent < 0:
                continue
            p = self.spans[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"span {i} {s.name} lies outside parent {p.name}")
            if s.op != p.op:
                errors.append(f"span {i} {s.name} has op {s.op}, parent has {p.op}")
        return errors

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
