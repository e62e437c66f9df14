"""In-memory spans for the traced run, and the arithmetic over them.

A :class:`Tracer` wraps public functions of the program from the
outside: each call records a span (name, start, end, parent, thread and
optional attributes).  The parent is the span open in the caller's
context -- a ``contextvars`` variable, so concurrent asyncio tasks and
threads each keep their own chain.  Spans stay in memory until
:meth:`Tracer.dump` writes them as JSON.

A span's *self time* is its duration minus the part of it that its
children cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

#: field order of one span record
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "thread", "attrs")


class Tracer:
    """Records spans around wrapped functions; restores them on demand."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: finished spans as ``SPAN_FIELDS`` tuples, in end order
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("e2e_span", default=None)
        #: (owner, key, original) for every installed wrapper
        self._installed: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as one span; yields its attrs dict."""
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = self.clock()
        try:
            yield attrs
        finally:
            end = self.clock()
            self._current.reset(token)
            self.spans.append((span_id, self._parent_of(token), name, start,
                               end, threading.get_ident(), attrs))

    @staticmethod
    def _parent_of(token) -> int | None:
        old = token.old_value
        return None if old is contextvars.Token.MISSING else old

    def wrap(self, name: str, func, on_result=None):
        """A wrapper recording one span per call of ``func``.

        ``on_result(result, args)`` may return a dict of numbers stored
        as the span's attributes (counts summed per span name later).
        """
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                with self.span(name) as attrs:
                    result = await func(*args, **kwargs)
                    if on_result is not None:
                        attrs.update(on_result(result, args))
                    return result
            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = func(*args, **kwargs)
                if on_result is not None:
                    attrs.update(on_result(result, args))
                return result
        return traced

    def install(self, owner, key: str, name: str, on_result=None) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) with a
        traced wrapper; classmethods and staticmethods stay what they
        are."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self.wrap(name, original, on_result)
        else:
            original = vars(owner)[key]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(
                    self.wrap(name, original.__func__, on_result))
            else:
                wrapped = self.wrap(name, original, on_result)
            setattr(owner, key, wrapped)
        self._installed.append((owner, key, original))

    def install_path(self, name: str, module: str, path: str,
                     on_result=None) -> None:
        """:meth:`install` on ``module`` + dotted ``path`` (e.g.
        ``"Engine.run"``): the name as its callers look it up."""
        owner = importlib.import_module(module)
        *parents, key = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        self.install(owner, key, name, on_result)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, key, original = self._installed.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def dump(self, path, **extra) -> None:
        """Write the spans (plus ``extra`` fields) as one JSON object."""
        payload = {**extra, "main_thread": threading.main_thread().ident,
                   "spans": [list(span) for span in self.spans]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    return {span[0]: (span[4] - span[3])
            - covered(children[span[0]], span[3], span[4])
            for span in spans}


def totals_by_name(spans) -> dict:
    """Per span name: ``count``, ``total`` and ``self`` seconds plus
    every numeric attribute summed."""
    selfs = self_times(spans)
    out: dict = {}
    for span in spans:
        entry = out.setdefault(span[2], {"count": 0, "total": 0.0,
                                         "self": 0.0})
        entry["count"] += 1
        entry["total"] += span[4] - span[3]
        entry["self"] += selfs[span[0]]
        for key, value in span[6].items():
            entry[key] = entry.get(key, 0) + value
    return out
