"""Spans recorded around calls into the program, kept in memory, and the
self-time arithmetic on them.

A span is a list [id, op, parent, name, start, end, error, amount]. id is
the span's index in Tracer.spans; op is the id of the root span of the
operation it belongs to; parent is the id of the span that was open when it
started (None for a root); start and end are time.perf_counter() seconds;
error is the exception type name if the call raised; amount is the work the
call did, as measured by its Point (characters, symbols, bytes, ...).
"""
from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ID, OP, PARENT, NAME, START, END, ERROR, AMOUNT = range(8)


@dataclass(frozen=True)
class Point:
    """A function to wrap, named by the module attribute its callers look it
    up by. adapt(args) may replace the positional arguments before the call;
    amount(args, result) gives the work a successful call did."""
    module: str
    attr: str
    name: str
    amount: Callable[[tuple, Any], float] | None = None
    adapt: Callable[[tuple], tuple] | None = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []  # points whose function no longer exists
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple] = []

    def install(self, points) -> None:
        """Replace each point's function by a recording wrapper. A module or
        attribute that does not exist is recorded in absent."""
        for point in points:
            try:
                module = importlib.import_module(point.module)
            except ImportError:
                module = None
            fn = getattr(module, point.attr, None)
            if not callable(fn):
                where = f"{point.module}.{point.attr}"
                if where not in self.absent:
                    self.absent.append(where)
                continue
            setattr(module, point.attr, self._wrap(fn, point))
            self._patched.append((module, point.attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), self._op, parent, name, 0.0, 0.0, None, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, point: Point):
        def wrapper(*args, **kwargs):
            if point.adapt is not None:
                args = point.adapt(args)
            span = self._open(point.name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if point.amount is not None:
                try:
                    span[AMOUNT] = point.amount(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass  # the call's signature changed; its amount is unknown
            return result

        return wrapper

    @contextmanager
    def op(self, name: str):
        """Root span of one operation; spans opened inside it share its id as
        their op."""
        if self._stack:
            raise RuntimeError(f"op {name!r} opened inside another span")
        self._op = len(self.spans)
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def merge(self, spans: list[list], absent: list[str]) -> None:
        """Append spans recorded by another process, renumbered to follow
        this tracer's own."""
        base = len(self.spans)
        for s in spans:
            moved = list(s)
            moved[ID] += base
            moved[OP] = None if s[OP] is None else s[OP] + base
            moved[PARENT] = None if s[PARENT] is None else s[PARENT] + base
            self.spans.append(moved)
        self.absent.extend(a for a in absent if a not in self.absent)

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"absent": self.absent, "spans": self.spans}),
                              encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = []
    for s in spans:
        covered = 0.0
        cursor = s[START]
        for c in sorted(children[s[ID]], key=lambda c: c[START]):
            lo, hi = max(c[START], cursor), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s[END] - s[START] - covered)
    return out


def check_ops(spans: list[list], selfs: list[float], tol: float = 1e-9) -> list[str]:
    """Problems found: any operation whose spans' self times do not sum to
    the duration of its root span."""
    totals: dict[int, float] = defaultdict(float)
    for s, self_s in zip(spans, selfs):
        totals[s[OP]] += self_s
    problems = []
    for s in spans:
        if s[PARENT] is None:
            duration = s[END] - s[START]
            if abs(totals[s[ID]] - duration) > tol:
                problems.append(f"op {s[ID]} ({s[NAME]}): self times sum to "
                                f"{totals[s[ID]]!r} s, root span lasts {duration!r} s")
    return problems
