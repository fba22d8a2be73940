"""In-memory spans recorded around the calls between the program's layers.

Spans are recorded only from the benchmark: ``Tracer.wrap`` replaces a
module-level name (say ``cli.integrate``) with a wrapper that opens a span,
calls the original and closes the span. The program is not edited. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Spans as ``[name, start, end, parent, op]`` lists, in opening order."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1                 # identifier shared by one operation's spans
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Trace calls made through ``module.attr`` as spans named ``name``.

        ``after(span_index, result, args, kwargs)`` runs once the span is closed.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(index, result, args, kwargs)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def select(self, name: str, ops) -> list[list]:
        return [s for s in self.spans if s[NAME] == name and s[OP] in ops]

    def busy(self, name: str, ops) -> float:
        return sum(s[END] - s[START] for s in self.select(name, ops))

    def child_time(self, index: int, names) -> float:
        """Time covered by the children of span ``index`` named in ``names``."""
        return sum(s[END] - s[START] for s in self.spans
                   if s[PARENT] == index and s[NAME] in names)

    def as_json(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "op": s[OP]} for s in self.spans]


class CallCounter:
    """Counts calls made through ``module.attr`` while the context is open."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.calls = 0

    def __enter__(self):
        self._original = original = getattr(self.module, self.attr)

        def counted(*args):
            self.calls += 1
            return original(*args)

        setattr(self.module, self.attr, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self._original)
