"""Spans recorded from outside lumharch by wrapping the names it calls.

A wrapper replaces a module attribute *where it is looked up*: the solver
does ``from .simplex import solve_lp``, so the traced name is
``lumharch.solver.solve_lp``, not ``lumharch.simplex.solve_lp``.
``Tracer.restore`` puts every original back and reports any that did not
come back.

Each thread keeps its own stack of open spans, so solves running on the
cli thread pool nest under their own ``solve`` span.  A span opened on an
empty stack in a worker thread takes the open root span (the batch call)
as its parent.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Span | None
    solve_id: tuple[str, str] | None  # (session, mode)
    end: float = 0.0
    error: str | None = None
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)
    _root: Span | None = None

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        *,
        solve_id: Callable[..., tuple[str, str]] | None = None,
        note: Callable[[Any], Any] | None = None,
        root: bool = False,
    ) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``solve_id(*args, **kwargs)`` names the solve a call belongs to
        (otherwise it inherits its parent's); ``note(result)`` keeps a small
        summary of the result; a ``root`` span parents worker-thread spans.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name, solve_id(*args, **kwargs) if solve_id else None, root)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span, root)
            if note is not None:
                span.note = note(result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> list[str]:
        """Put back every wrapped name; returns those that are not the original."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        broken = [
            f"{module.__name__}.{attr}" for module, attr, original in self._saved if getattr(module, attr) is not original
        ]
        self._saved.clear()
        return broken

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, solve_id: tuple[str, str] | None, root: bool) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if solve_id is None and parent is not None:
            solve_id = parent.solve_id
        span = Span(name=name, start=time.perf_counter(), parent=parent, solve_id=solve_id)
        self.spans.append(span)
        stack.append(span)
        if root:
            self._root = span
        return span

    def _close(self, span: Span, root: bool) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if root:
            self._root = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children on the thread pool can overlap each other, so the covered part
    is the length of the union of their intervals.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = s.duration - covered
    return out
