"""Spans and counts for the traced run, recorded from outside the program.

The program has no tracing hooks of its own for this benchmark, so a
traced run replaces a few of its public functions with wrappers that
record one span per call: name, start, end, parent, thread and the op
it belongs to.  Counts (points searched, bytes written, cache hits) are
taken at the same boundaries.  Spans stay in memory until the run ends.

A wrapper records only while an op is being traced: ``resolve_op``
returns the op's id, or None, in which case the wrapper is a plain
call-through.  In the benchmark's own process that is the op the
harness marked as traced; in the server process it is the trace id the
client sent, when that id carries :data:`TRACED_PREFIX`.

A layer's number is its self time: span duration minus the part of it
that child spans cover.  A span opened with no enclosing span on its
own thread (work on a job's pool thread, or anything in the server
process) is the child of the innermost main-thread span that contains
its start.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: Trace-id prefix that marks a request as traced in the server process.
TRACED_PREFIX = "b0b0b0b0"

#: Names of the root spans the harness opens per op: the op itself and,
#: for jobs, the read-back of the finished result.
ROOTS = ("op", "fetch")


class Tracer:
    """Thread-safe in-memory span and count recorder for one process."""

    def __init__(
        self, process: str, resolve_op: Callable[[], Any] | None = None
    ) -> None:
        self.process = process
        #: The op being traced in this process (None: not tracing).
        self.current: Any = None
        self.resolve_op = resolve_op or (lambda: self.current)
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[Any, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: Wrap targets that were not found (renamed or removed upstream);
        #: their layers then read 0 and the run says so.
        self.missing: list[str] = []
        self.main_thread = threading.main_thread().ident
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: Any) -> dict[str, Any]:
        """Start a span of ``op`` on this thread."""
        stack = self._stack()
        span = {
            "id": f"{self.process}{next(self._ids)}",
            "name": name,
            "op": op,
            "parent": stack[-1]["id"] if stack else None,
            "main": threading.get_ident() == self.main_thread,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def close(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if span in stack:
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    def add(self, op: Any, values: dict[str, float]) -> None:
        with self._lock:
            bucket = self.counts[op]
            for name, value in values.items():
                bucket[name] += value

    def dump(self) -> dict[str, Any]:
        """Everything recorded, JSON-ready (op ids become strings)."""
        return {
            "spans": [dict(span, op=str(span["op"])) for span in self.spans],
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
            "missing": list(self.missing),
        }


def wrap(
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: str | None,
    count: Callable[[tuple, Any], dict[str, float]] | None = None,
    generator: str = "",
) -> None:
    """Replace ``owner.attr`` with a recording wrapper.

    ``name`` is the span name (None: counts only).  ``count`` maps the
    call's arguments and result to counts added to the op.  For a
    generator function, ``generator="each"`` records one span per item
    produced (``count`` sees each item) and ``"whole"`` one span from
    the call until the generator is exhausted.
    """
    raw = vars(owner).get(attr)
    if raw is None:
        tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    is_classmethod = isinstance(raw, classmethod)
    func = raw.__func__ if is_classmethod else raw

    def each(op, items, args):
        while True:
            span = tracer.open(name, op)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            if count is not None:
                tracer.add(op, count(args, item))
            yield item

    def whole(op, items, args):
        span = tracer.open(name, op)
        try:
            yield from items
        finally:
            tracer.close(span)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        op = tracer.resolve_op()
        if op is None:
            return func(*args, **kwargs)
        if generator:
            items = func(*args, **kwargs)
            return (each if generator == "each" else whole)(op, items, args)
        span = tracer.open(name, op) if name else None
        try:
            result = func(*args, **kwargs)
        finally:
            if span is not None:
                tracer.close(span)
        if count is not None:
            tracer.add(op, count(args, result))
        return result

    setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def _covered(interval: tuple[float, float], others: Iterable[tuple]) -> float:
    """Length of the union of ``others`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in others
        if end > lo and start < hi
    )
    total, cursor = 0.0, lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Self time per span id for the spans of one op (seconds)."""
    by_id = {span["id"]: span for span in spans}
    main = [span for span in spans if span["main"]]
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["name"] in ROOTS:
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            enclosing = [
                other
                for other in main
                if other is not span
                and other["start"] <= span["start"] < other["end"]
            ]
            if enclosing:
                parent = min(enclosing, key=lambda s: s["end"] - s["start"])
        if parent is not None:
            children[parent["id"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered((span["start"], span["end"]), children[span["id"]])
        for span in spans
    }
