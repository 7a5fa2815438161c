"""Span recorder and function wrappers for the traced benchmark run.

Spans are recorded from outside the package: each traced function is
wrapped by rebinding its name in every ``textilemodel`` module that
holds it, so calls through any import path are seen, including calls
a module makes to its own functions.  A span is (name, start, end,
parent, op).  Spans stay in memory and are reduced to metrics once
the op has finished; ``traced`` restores every original binding on
exit, also when the op raises.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one process; spans are indexed by begin order."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.op))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        open_span = self.spans[idx]
        self.spans[idx] = Span(
            open_span.name, open_span.start, time.perf_counter(), open_span.parent, self.op
        )

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def children(self, idx: int) -> list:
        return [s for s in self.spans if s.parent == idx]

    def has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def totals(self) -> dict:
        """name -> (seconds, calls), counting only the outermost of nested
        spans that share a name, so recursion is not counted twice."""
        out: dict = {}
        for span in self.spans:
            if self.has_ancestor(span, span.name):
                continue
            secs, calls = out.get(span.name, (0.0, 0))
            out[span.name] = (secs + span.duration, calls + 1)
        return out


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is not None and s <= cur_e:
            cur_e = max(cur_e, e)
            continue
        if cur_e is not None:
            total += cur_e - cur_s
        cur_s, cur_e = s, e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span: Span, children) -> float:
    """Duration of ``span`` minus the part of it that ``children`` cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - covered(clipped)


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.func`` in a span named ``name`` (no span when None);
    ``after`` gets (recorder, arguments by parameter name, result) to
    add counters."""

    name: str | None
    module: str
    func: str
    after: Callable | None = None


def _wrap(rec: Recorder, hook: Hook, fn):
    signature = inspect.signature(fn) if hook.after is not None else None

    def wrapper(*args, **kwargs):
        if hook.name is None:
            result = fn(*args, **kwargs)
        else:
            idx = rec.begin(hook.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(idx)
        if signature is not None:
            hook.after(rec, signature.bind(*args, **kwargs).arguments, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def span_cost(n: int = 20000) -> float:
    """Seconds one recorded span adds to a call: a wrapped no-op against
    the bare one, best of three loops of ``n`` calls each."""

    def noop():
        return None

    wrapped = _wrap(Recorder(), Hook("cost", __name__, "noop"), noop)

    def best(fn) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(0.0, best(wrapped) - best(noop)) / n


def install(rec: Recorder, hooks, package: str) -> list:
    """Rebind every name bound to a hooked function in ``package``'s
    loaded modules; returns the (module, attr, original) bindings."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    bindings = []
    for hook in hooks:
        original = getattr(sys.modules[hook.module], hook.func)
        wrapper = _wrap(rec, hook, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    bindings.append((mod, attr, original))
    return bindings


def uninstall(bindings) -> None:
    for mod, attr, original in reversed(bindings):
        setattr(mod, attr, original)


@contextlib.contextmanager
def traced(rec: Recorder, hooks, package: str):
    bindings = install(rec, hooks, package)
    try:
        yield bindings
    finally:
        uninstall(bindings)
