"""Spans for the traced benchmark run.

A span is a name, a start, an end and the span that was open when it
began (its parent), per thread.  Spans are kept in memory and written
out once, when the benchmark ends.  They are recorded only around the
benchmark's own calls into the program's public functions; nothing
inside ``src/`` is instrumented.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

# Indices into a span record.
_ID, _PARENT, _NAME, _START, _END = range(5)


class Tracer:
    """In-memory span recorder, safe to share between threads."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list[Any]:
        stack = self._stack()
        parent = stack[-1][_ID] if stack else 0
        span = [next(self._ids), parent, name, time.perf_counter(), 0.0]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list[Any]) -> None:
        span[_END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self.begin(name)
        try:
            yield
        finally:
            self.end(record)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(record)
        return traced

    def mark(self) -> int:
        """Position in the span list, to aggregate one round's spans."""
        return len(self.spans)

    def totals(self, since: int = 0) -> dict[str, tuple[int, float]]:
        """``name -> (count, seconds)`` over the spans since ``since``."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans[since:]:
            entry = out[span[_NAME]]
            entry[0] += 1
            entry[1] += span[_END] - span[_START]
        return {name: (int(c), s) for name, (c, s) in out.items()}

    def self_seconds(self, names: set[str], since: int = 0) -> float:
        """Summed self time of the spans called one of ``names``: each
        span's duration minus the time its direct children cover."""
        window = self.spans[since:]
        child_time: dict[int, float] = defaultdict(float)
        for span in window:
            child_time[span[_PARENT]] += span[_END] - span[_START]
        return sum(s[_END] - s[_START] - child_time[s[_ID]]
                   for s in window if s[_NAME] in names)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent,
                                      "name": name, "start": start,
                                      "end": end}) + "\n")


def call(tracer: Tracer | None, name: str, fn: Callable[..., Any],
         *args: Any, **kwargs: Any) -> Any:
    """Call ``fn``, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(name):
        return fn(*args, **kwargs)


@contextmanager
def traced_sizes(tracer: Tracer | None) -> Iterator[None]:
    """Record every ``len(Function)`` node-count walk as ``bdd.size``."""
    if tracer is None:
        yield
        return
    from repro.bdd.function import Function

    original = Function.__len__
    Function.__len__ = tracer.wrap("bdd.size", original)
    try:
        yield
    finally:
        Function.__len__ = original
