"""Span recording around the program's public functions, for traced runs only.

`Tracer.wrap` replaces a function or method with a timing wrapper. Every
wrapped call is a span; spans nest per thread, so a span knows the total time
and the number of calls of each wrapped function it called directly, and its
self time is its duration minus those. Untraced runs never construct a
Tracer, so they run the program's functions unwrapped.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.on = False
        self.calls: dict[str, list[float]] = defaultdict(list)   # name -> call seconds
        self.spans: dict[str, list[dict]] = defaultdict(list)    # name -> child totals
        self.values: dict[str, list[float]] = defaultdict(list)  # name -> sampled numbers
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, always: bool = False,
             keep_calls: bool = True, keep_spans: bool = False,
             before=None, after=None) -> None:
        """Time every call of `owner.attr` (or `owner[attr]` for a dict) under `name`.

        `always` records even while the tracer is off (one-off set-up calls);
        `keep_calls=False` keeps only the totals in the calling span, for
        calls made hundreds of times per operation; `keep_spans` keeps each
        call's child totals for self-time metrics; `before(args)` and
        `after(args, result)` run around recorded calls.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self
        calls = self.calls[name]

        def wrapper(*args, **kwargs):
            if not (tracer.on or always):
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            stack = tracer.stack()
            span: dict = {}
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
            if keep_calls:
                calls.append(duration)
            if keep_spans:
                span[""] = duration
                tracer.spans[name].append(span)
            if stack:
                parent = stack[-1]
                parent[name] = parent.get(name, 0.0) + duration
                parent["#" + name] = parent.get("#" + name, 0) + 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def open_span(self) -> dict:
        """Start a span that no function call delimits (a training step)."""
        span = {"": time.perf_counter()}
        self.stack().append(span)
        return span

    def close_span(self, name: str) -> None:
        span = self.stack().pop()
        span[""] = time.perf_counter() - span[""]
        self.spans[name].append(span)

    def dump(self) -> dict:
        return {"calls": {k: v for k, v in self.calls.items() if v},
                "spans": dict(self.spans),
                "values": dict(self.values), "counts": dict(self.counts)}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Trace:
    """Read-only view over one or more Tracer dumps (one per process)."""

    def __init__(self, *dumps: dict):
        self.dumps = [d for d in dumps if d]

    def calls(self, name: str) -> list[float]:
        return [v for d in self.dumps for v in d["calls"].get(name, [])]

    def spans(self, name: str) -> list[dict]:
        return [s for d in self.dumps for s in d["spans"].get(name, [])]

    def values(self, name: str) -> list[float]:
        return [v for d in self.dumps for v in d["values"].get(name, [])]

    def count(self, name: str) -> int:
        return sum(d["counts"].get(name, 0) for d in self.dumps)

    def call_median(self, name: str, scale: float) -> float:
        return median(self.calls(name)) * scale

    def child_median(self, span: str, children: tuple[str, ...], scale: float) -> float:
        """Median over `span` calls of the time spent in the named direct children."""
        return median([sum(s.get(c, 0.0) for c in children)
                       for s in self.spans(span)]) * scale

    def child_count_median(self, span: str, children: tuple[str, ...]) -> float:
        return median([sum(s.get("#" + c, 0) for c in children) for s in self.spans(span)])

    def self_median(self, span: str, scale: float) -> float:
        """Median over `span` calls of duration minus all timed direct children."""
        return median([s[""] - sum(v for k, v in s.items() if k and k[0] != "#")
                       for s in self.spans(span)]) * scale
