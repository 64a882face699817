"""Span tracing installed from outside the program.

A :class:`Tracer` replaces module-level names that callers look up at call
time (``zipcrt.mc.fit_zip``, ``zipcrt.cli.read_dataset``, ...) with timing
wrappers, and puts the originals back afterwards.  Spans nest through a
stack, so a span's self time is its duration minus the durations of the
spans it called.  Every second of a traced region lands in exactly one
span's self time when the region itself runs inside a root span, which is
what lets the per-layer self times add up to the traced wall time.

A name that a later version of the program no longer has is skipped: its
span then reports 0 calls, which is not an error.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional


class SpanStats:
    """Calls, total and self seconds, per-call durations and failures of one span."""

    def __init__(self) -> None:
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.failed = 0

    @property
    def calls(self) -> int:
        return len(self.durations)

    def p50(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


# A hook sees the wrapped call's arguments, result and duration in seconds.
# It returns True when the call failed without raising (a non-converged fit,
# a non-zero exit code) and may record counts on the tracer.
Hook = Callable[["Tracer", tuple, object, float], bool]


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list[float]] = []

    def call(self, name: str, fn: Callable, *args, hook: Optional[Hook] = None, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        children = [0.0]
        self._stack.append(children)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            stats = self.spans[name]
            stats.total += duration
            stats.self_time += duration - children[0]
            stats.durations.append(duration)
            stats.failed += failed
        if hook is not None and hook(self, args, result, duration):
            stats.failed += 1
        return result

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(
        self, targets: list[tuple[str, str, str, Optional[Hook]]]
    ) -> Iterator["Tracer"]:
        """Wrap each ``(module, attribute, span name, hook)`` for the block."""
        wrappers = [
            (module, attr, self.wrap(name, getattr(module, attr), hook))
            for module, attr, name, hook in _resolve(targets)
        ]
        with patched(wrappers):
            yield self


def _resolve(targets):
    for module_name, attr, name, hook in targets:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            yield module, attr, name, hook


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set each ``(module, attribute, value)`` for the block, then restore."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(originals):
            setattr(module, attr, value)
