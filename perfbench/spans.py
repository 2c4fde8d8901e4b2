"""In-memory span recorder that wraps a package's public functions.

A span is one call into a wrapped function: its name, start, end, the
span that was open when it began (its parent), the job id and the
process tag.  Spans are recorded only while a job id is set, so the
benchmark's own correctness checks are never timed.  Hot functions,
called thousands of times per job, are aggregated as a call count and
a total time instead, and that time is charged to the enclosing span so
that its self time stays right.  Nothing is written until `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# CLOCK_MONOTONIC on Linux: stamps taken in a child process share the
# parent's time axis, which the CLI startup time relies on.
clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "proc", "hot_s", "cold", "value")

    def __init__(self, name, start, end, parent, job, proc, hot_s=0.0, cold=False, value=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent   # index of the enclosing span in the same list, or -1
        self.job = job
        self.proc = proc
        self.hot_s = hot_s     # time spent in aggregated hot callees
        self.cold = cold       # a cached function that missed its cache
        self.value = value     # a count an observer attached (tuples, flags, bytes)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job, self.proc,
                self.hot_s, self.cold, self.value]


class Tracer:
    """Wraps public functions of chosen modules and records their calls.

    `layer_of` maps a function's defining module to its layer name; only
    functions defined in a mapped module are wrapped, under the span
    name "<layer>.<function>".  `hot` names the functions to aggregate.
    `observers` maps a span name to a callable
    observer(tracer, span, args, kwargs, result) that attaches counts.
    """

    def __init__(self, layer_of: dict, proc: str = "main", hot=(), observers=None):
        self.layer_of = dict(layer_of)
        self.proc = proc
        self.hot_names = frozenset(hot)
        self.observers = dict(observers or {})
        self.job = None
        self.spans: list[Span] = []
        self.hot: dict = defaultdict(lambda: [0, 0.0])          # (job, name) -> [calls, s]
        self.counters: dict = defaultdict(float)                # (job, key) -> value
        self._stack: list[int] = []
        self._wrappers: dict = {}     # id(original) -> wrapper
        self._wrapper_ids: set = set()
        self._patched: list = []      # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(self.job, key)] += value

    def add_span(self, name: str, start: float, end: float) -> int:
        """Record a span measured by the caller (for example a child process)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, start, end, parent, self.job, self.proc))
        return len(self.spans) - 1

    def _traced(self, name, fn):
        observer = self.observers.get(name)
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            stack = self._stack
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.job, self.proc)
            misses = fn.cache_info().misses if cached else 0
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if cached:
                span.cold = fn.cache_info().misses > misses
            if observer is not None:
                observer(self, span, args, kwargs, result)
            return result

        return traced

    def _aggregated(self, name, fn):
        @functools.wraps(fn)
        def aggregated(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                entry = self.hot[(self.job, name)]
                entry[0] += 1
                entry[1] += dt
                if self._stack:
                    self.spans[self._stack[-1]].hot_s += dt

        return aggregated

    # -- installing --------------------------------------------------------

    def _target_name(self, attr: str, value):
        if attr.startswith("_") or inspect.isclass(value) or not callable(value):
            return None
        if not (inspect.isfunction(value) or hasattr(value, "__wrapped__")):
            return None
        layer = self.layer_of.get(getattr(value, "__module__", None))
        if layer is None:
            return None
        return f"{layer}.{value.__name__}"

    def install(self, modules) -> None:
        """Replace every public function found in `modules` by its wrapper.

        A function imported into several modules gets one wrapper, set in
        each namespace where callers look it up.
        """
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in self._wrapper_ids:
                    continue
                name = self._target_name(attr, value)
                if name is None:
                    continue
                wrapper = self._wrappers.get(id(value))
                if wrapper is None:
                    make = self._aggregated if name in self.hot_names else self._traced
                    wrapper = self._wrappers[id(value)] = make(name, value)
                    self._wrapper_ids.add(id(wrapper))
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "proc": self.proc,
            "spans": [s.row() for s in self.spans],
            "hot": [[job, name, calls, total] for (job, name), (calls, total) in self.hot.items()],
            "counters": [[job, key, value] for (job, key), value in self.counters.items()],
        }

    def merge(self, doc: dict, parent: int = -1) -> None:
        """Append another tracer's dump; its root spans hang under `parent`."""
        offset = len(self.spans)
        for row in doc["spans"]:
            span = Span(*row)
            span.parent = parent if span.parent < 0 else span.parent + offset
            self.spans.append(span)
        for job, name, calls, total in doc["hot"]:
            entry = self.hot[(job, name)]
            entry[0] += calls
            entry[1] += total
        for job, key, value in doc["counters"]:
            self.counters[(job, key)] += value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans and hot callees cover."""
    covered = [s.hot_s for s in spans]
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def outermost(spans, index: int) -> bool:
    """True unless the span sits inside another span of the same name (recursion)."""
    name = spans[index].name
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True
