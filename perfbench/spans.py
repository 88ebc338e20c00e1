"""In-memory spans around calls into the program's layers, from outside.

A :class:`Tracer` records one root span per benchmark operation and a child
span for each wrapped public call. Every span runs its Spark jobs under the
job group ``"<op id>|<span name>"``, so the event log (``sparkcost``) can
attribute Spark work to the span that launched it. Spans stay in memory and
are written out once, when the run ends.

Wrapping is done by replacing a function in the namespace of the module
that calls it (``Tracer.wrap``), so the program's files are not touched.
Wrappers pass straight through while the tracer is inactive, which lets a
traced run alternate traced and untraced operations.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

__all__ = ["Span", "Tracer", "covered_s"]


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float  # epoch seconds, comparable with event-log timestamps
    end: float = 0.0
    dur_s: float = 0.0  # measured with perf_counter

    @property
    def group(self) -> str:
        return f"{self.op}|{self.name}"


class Tracer:
    def __init__(self, sc=None):
        self.sc = sc
        self.active = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list = []
        self._op = 0

    @contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one operation; tracing is active inside it."""
        self._op = op_id
        self.active = True
        try:
            with self.span(name) as s:
                yield s
        finally:
            self.active = False

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(
            id=len(self.spans),
            name=name,
            op=self._op,
            parent=parent.id if parent else None,
            start=time.time(),
        )
        self.spans.append(s)
        self._stack.append(s)
        self._set_group(s)
        t0 = time.perf_counter()
        try:
            yield s
        finally:
            s.dur_s = time.perf_counter() - t0
            s.end = time.time()
            self._stack.pop()
            self._set_group(self._stack[-1] if self._stack else None)

    def _set_group(self, s: Span | None) -> None:
        if self.sc is None:
            return
        if s is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(s.group, s.name)

    def wrap(self, module, attr: str, span_name: str) -> None:
        """Replace ``module.attr`` by a wrapper that runs it inside a span."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(span_name):
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def of_op(self, op_id: int) -> list[Span]:
        return [s for s in self.spans if s.op == op_id]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def covered_s(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` (start, end) clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
