"""Span recording around public ``repro`` functions, from the benchmark's side.

Only the traced run installs these wrappers; the timed run calls the
library untouched.  A span records name, start, end, thread and rows.
Nested calls on one thread are children of the enclosing span, and a
span's self time is its duration minus its direct children's durations.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.instrument import Instrumentation


_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "thread", "rows", "child_s")

    def __init__(self, name: str, start: float, thread: int, rows: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.rows = rows
        self.child_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _rows_of(args: Sequence) -> int:
    for value in args:
        shape = getattr(value, "shape", None)
        if shape:
            return int(shape[0])
    return 0


class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rows: int = 0) -> Span:
        span = Span(name, time.perf_counter(), threading.get_ident(), rows)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.end - span.start
        self.spans.append(span)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper (undone by
        :meth:`uninstall`).  Plain functions and methods only."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, _rows_of(args))
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(span)

        self._replace(owner, attr, wrapper)

    def wrap_iter(self, owner: type, attr: str, name: str) -> None:
        """Span every ``next()`` of the iterator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                span = recorder.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    recorder.close(span)
                    return
                span.rows = _rows_of(item)
                recorder.close(span)
                yield item

        self._replace(owner, attr, wrapper)

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def between(self, start: float, end: float) -> List[Span]:
        return [s for s in self.spans if start <= s.start and s.end <= end]


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total self seconds, total seconds."""
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span in spans:
        entry = table[span.name]
        entry["calls"] += 1
        entry["self_s"] += span.self_s
        entry["total_s"] += span.duration_s
    return dict(table)


class StepKindTimer(Instrumentation):
    """``on_step`` hook: (time, step kind, ms) of every executed plan step."""

    def __init__(self) -> None:
        self.events: List[Tuple[float, str, float]] = []

    def on_step(self, step, duration_ms: float, backend: str,
                rows: int) -> None:
        self.events.append((time.perf_counter(), step.kind, duration_ms))

    def by_kind(self, windows: Sequence[Tuple[float, float]]
                ) -> Dict[str, float]:
        """Total ms per step kind over the steps that ended in ``windows``."""
        totals: Dict[str, float] = defaultdict(float)
        for when, kind, duration_ms in self.events:
            if any(start <= when <= end for start, end in windows):
                totals[kind] += duration_ms
        return dict(totals)


class CompileCounter:
    """Counts plan compiles by wrapping the executor's ``compile_plan``."""

    def __init__(self) -> None:
        self.times: List[float] = []

    def install(self, recorder: SpanRecorder) -> None:
        import repro.runtime.executor as executor_module

        original = executor_module.compile_plan
        counter = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counter.times.append(time.perf_counter())
            return original(*args, **kwargs)

        recorder._replace(executor_module, "compile_plan", wrapper)

    def between(self, windows: Sequence[Tuple[float, float]]) -> int:
        return sum(1 for t in self.times
                   if any(start <= t <= end for start, end in windows))


def attribute_intervals(
    intervals: Sequence[Tuple[float, float, int, str]],
) -> Dict[str, float]:
    """Self time per label over one request's possibly cross-thread spans.

    Each interval is ``(start, end, depth, label)``.  Every instant inside
    the outermost interval is charged to the deepest interval covering it,
    so the per-label self times add up exactly to the outermost duration.
    """
    cuts = sorted({point for start, end, _, _ in intervals
                   for point in (start, end)})
    totals: Dict[str, float] = defaultdict(float)
    for left, right in zip(cuts, cuts[1:]):
        if right <= left:
            continue
        middle = 0.5 * (left + right)
        best: Optional[Tuple[int, str]] = None
        for start, end, depth, label in intervals:
            if start <= middle < end and (best is None or depth > best[0]):
                best = (depth, label)
        if best is not None:
            totals[best[1]] += right - left
    return dict(totals)

