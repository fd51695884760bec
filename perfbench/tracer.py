"""In-memory spans recorded by wrapping module attributes from outside.

A :class:`Tracer` replaces an attribute that callers look up (for example
``protocol.hermitian_max_eigenpair``) with a wrapper that records a span
around each call, and puts every original back on :meth:`Tracer.restore`.
Nothing under ``src/`` knows about it. Spans stay in memory until the
owner serialises them with :meth:`Tracer.dump`.
"""

import functools
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent tags")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end or None while open, parent, tags]
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._installed = []     # (owner, attr, original raw attribute)

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        """Start a span; its parent is the innermost open span of this
        thread or, on a worker thread with none open, of the main thread."""
        stack = self._stack()
        parents = stack or self._main_stack
        parent = parents[-1] if parents else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, {}])
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def tags(self, index):
        return self.spans[index][4]

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def finished(self):
        """All spans; one still open (a call that never returned) ends now."""
        now = time.perf_counter()
        return [Span(n, s, now if e is None else e, p, t)
                for n, s, e, p, t in self.spans]

    def dump(self):
        return {"spans": [list(s) for s in self.finished()],
                "counters": dict(self.counters)}

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr, name, tag=None):
        """Record a span named *name* around every call of owner.attr.

        ``tag(tags, args, kwargs, result)`` may add fields to the span when
        the call ends; after a raised exception ``result`` is None and the
        span is tagged with the exception's type name.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                tracer.tags(index)["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(index)
                if tag is not None:
                    tag(tracer.tags(index), args, kwargs, result)

        self._install(owner, attr, raw,
                      staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def replace(self, owner, attr, value):
        """Install an arbitrary replacement that :meth:`restore` undoes."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._install(owner, attr, raw, value)

    def _install(self, owner, attr, raw, value):
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, value)

    def restore(self):
        """Put every wrapped attribute back, newest first; return the
        (owner, attr) pairs that do not hold their original afterwards."""
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        left = [(owner, attr) for owner, attr, raw in self._installed
                if (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)) is not raw]
        self._installed = []
        return left


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (worker threads under one parent), so
    the covered part is the length of the union of their intervals,
    clipped to the parent's.
    """
    children = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        lo = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, lo), min(end, span.end)
            if end > start:
                covered += end - start
                lo = end
        out.append(span.end - span.start - covered)
    return out


def merge(dumps):
    """Concatenate span dumps from separate processes, re-basing parents."""
    spans, counters = [], {}
    for dump in dumps:
        base = len(spans)
        for name, start, end, parent, tags in dump["spans"]:
            spans.append(Span(name, start, end,
                              parent + base if parent >= 0 else -1, tags))
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return spans, counters
