"""Timing spans recorded around calls into the engine.

Every operation the benchmark times is run through ``Spans.call``, which
records its name, start, end and the span that was open when it started.
``Spans.wrap`` returns a timed wrapper for callables the engine calls back
(the hedging pricer) or that the benchmark calls many times; with nesting
off it returns the callable unchanged, so an untraced run pays for one
``perf_counter`` pair per operation and nothing inside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    count: int = 0
    failed: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span log; ``nested`` turns the inner wrappers on."""

    def __init__(self, nested: bool) -> None:
        self.nested = nested
        self.log: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args: Any, count: int = 0, **kwargs: Any):
        """Run ``fn`` inside a span; returns (result, seconds). Exceptions
        propagate after the span is closed and marked failed."""
        idx = len(self.log)
        span = Span(name, perf_counter(), 0.0, self._open[-1] if self._open else None, count)
        self.log.append(span)
        self._open.append(idx)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = perf_counter()
            self._open.pop()
        return result, span.seconds

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[..., int] | None = None,
    ) -> Callable:
        """Timed wrapper when nesting is on; ``count`` maps the arguments to
        the work done (e.g. points priced). Otherwise ``fn`` itself."""
        if not self.nested:
            return fn

        def timed(*args: Any, **kwargs: Any):
            n = count(*args, **kwargs) if count is not None else 1
            return self.call(name, fn, *args, count=n, **kwargs)[0]

        return timed

    def find(self, name: str) -> list[int]:
        """Indices of the spans called ``name``, in start order."""
        return [i for i, s in enumerate(self.log) if s.name == name]

    def kids(self, parent: int, name: str) -> list[int]:
        """Indices of the direct children of span ``parent`` called ``name``."""
        return [
            i for i in range(parent + 1, len(self.log))
            if self.log[i].parent == parent and self.log[i].name == name
        ]

    def dump(self, path: str) -> None:
        """Write the log as JSON, times relative to the first span."""
        t0 = self.log[0].start if self.log else 0.0
        rows = [
            {
                "name": s.name,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "parent": s.parent,
                "count": s.count,
                "failed": s.failed,
            }
            for s in self.log
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
