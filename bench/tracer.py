"""Spans around every call into rfplan's public functions.

The tracer patches module attributes from outside the package: each
public function defined in a layer module is replaced by a wrapper on
every rfplan module that holds it, including names another module took
with ``from ... import`` (``mitigate.compute_grid``, ``cli.load_scenario``)
and the package-level re-exports. ``scipy.optimize.least_squares`` as
seen by ``rfplan.localize`` is wrapped too, and the forward-model calls
``propagation.pathloss_db_clamped`` made under a localize span are
counted without a span of their own.

Spans live in memory until ``take()``; a span's parent is the innermost
open span of its thread, or, for a worker thread with nothing open, the
innermost open span of the thread that installed the tracer. Self time
subtracts children on the span's own thread only, so the self times of
that thread's spans add up to at most its wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

LAYERS = ("scenario", "planning", "coverage", "twin", "detect", "localize",
          "mitigate", "report", "cli")
# spans whose return value the per-layer counters read; other results are
# dropped at once, so a traced iteration holds no more memory than a plain one
KEEP_RESULT = ("detect.kmeans", "localize.least_squares")


class Span:
    __slots__ = ("name", "layer", "t0", "t1", "parent", "thread", "result")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.thread = threading.get_ident()
        self.t0 = self.t1 = 0.0
        self.result = None

    @property
    def duration(self):
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pathloss_calls = 0
        self.main_thread = None
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, layer):
        tracer = self
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outer = stack or tracer._main_stack
            span = Span(name, layer, outer[-1] if outer else None)
            tracer.spans.append(span)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span.result = result
                return result
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
        return wrapper

    def _count_pathloss(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].layer == "localize":
                tracer.pathloss_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Patch every rfplan module attribute that names a traced function."""
        modules = {name: importlib.import_module(f"rfplan.{name}") for name in LAYERS}
        package = importlib.import_module("rfplan")
        propagation = importlib.import_module("rfplan.propagation")
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        localize = modules["localize"]
        self._patch(localize, "least_squares",
                    self._wrap(localize.least_squares, "localize.least_squares",
                               "localize"))
        self._patch(propagation, "pathloss_db_clamped",
                    self._count_pathloss(propagation.pathloss_db_clamped))
        self._main_stack = self._stack()
        self.main_thread = threading.get_ident()

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def take(self):
        """Hand over the recorded spans and counters and start afresh."""
        spans, calls = self.spans, self.pathloss_calls
        self.spans, self.pathloss_calls = [], 0
        return spans, calls


def self_times(spans):
    """{id(span): duration minus its same-thread children's durations}.

    Children on one thread never overlap, so their sum is the part of the
    span they cover."""
    out = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread:
            out[id(s.parent)] -= s.duration
    return out
