"""Spans around the package's module boundaries, recorded from outside.

The tracer replaces a callable by a timing wrapper under the name the calling
module binds, so a call made from inside the package goes through it.  Each
wrapper keeps calls, busy time, self time (busy time minus the child spans
inside it) and a size taken from the arguments or the result.  A target the
package no longer has is recorded as missing and left alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    size: int = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.missing: list[str] = []
        self.top_busy_s = 0.0  # time inside any outermost span
        self._stack: list[list[float]] = []
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, name: str, size=None):
        """Time module.attr as span `name`; size(args, result) gives its size."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += busy
                else:
                    self.top_busy_s += busy
                span.calls += 1
                span.busy_s += busy
                span.self_s += busy - child[0]
            if size is not None:
                span.size += size(args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def get(self, name: str) -> Span:
        """The span's totals; all zero when its target was missing."""
        return self.spans.get(name, Span())
