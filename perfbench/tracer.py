"""Per-module spans for beamsim, recorded from outside the package.

`Tracer` replaces every public function of every beamsim module, and every
public method of a class defined there, with a wrapper that records a span
(module, function, start, end, parent).  The replacement covers the module
attribute and every other name bound to the same function object, in any
beamsim module or the package itself, so a call such as
`engine.deploy_users(...)` (imported with `from .scenario import
deploy_users`) is caught as well.  A method counts to the module that
defines its class, so `SectorGrid.neighbor_order` called from scheduling is
geometry time.  Spans are kept in memory; the arithmetic that turns them
into per-module self time is `summarise`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    module: str        # beamsim submodule name, e.g. "channel"
    name: str          # function or method qualname, e.g. "SectorGrid.assign"
    start: float       # perf_counter seconds
    end: float
    parent: int        # index of the enclosing span, -1 at top level


# Work counts taken from return values: (module, function) -> (counter, size of result)
WORK_COUNTERS = {
    ("scenario", "deploy_users"): ("scenario.users", len),
    ("scheduling", "random_schedule"): ("scheduling.frames", lambda seq: seq.n_frames),
    ("scheduling", "gsa_schedule"): ("scheduling.frames", lambda seq: seq.n_frames),
}


def package_modules():
    """{short name: module} for every submodule of beamsim."""
    pkg = importlib.import_module("beamsim")
    return {
        info.name: importlib.import_module(f"beamsim.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    }


def public_functions(module):
    """Public functions defined in `module` itself (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def public_methods(module):
    """[(class, attribute, function)] for the public methods of classes defined
    in `module`.  Properties and dunder methods are left alone."""
    classes = {
        obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isclass(obj)
        and obj.__module__ == module.__name__
    }
    return [
        (cls, attr, fn)
        for cls in sorted(classes, key=lambda c: c.__qualname__)
        for attr, fn in vars(cls).items()
        if not attr.startswith("_") and inspect.isfunction(fn)
    ]


class Tracer:
    """Context manager that wraps beamsim's public functions and methods while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []     # (namespace object, attribute, original)

    def __enter__(self):
        modules = package_modules()
        wrappers = {}
        for short, module in modules.items():
            for fn in public_functions(module).values():
                wrappers[id(fn)] = (fn, self._wrap(short, fn))
            for cls, attr, fn in public_methods(module):
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(short, fn))
        namespaces = [importlib.import_module("beamsim"), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, module, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        name = fn.__qualname__
        counter = WORK_COUNTERS.get((module, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)       # reserve the slot so children index after it
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(module, name, start, end, parent)
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return wrapper


def summarise(spans):
    """Per-module self time, cross-module call counts and engine write time.

    A span's self time is its duration minus the durations of its direct
    children; summing self time over a module's spans gives the time spent in
    that module's own code.  `calls[m]` counts spans of m whose parent belongs
    to another module (or that have no parent).  `write_s` is the time of
    `engine.run_experiment` spent outside its `run_cell` children.
    """
    child_time = [0.0] * len(spans)
    cell_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            if s.name == "run_cell":
                cell_time[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    calls = Counter()
    write_s = 0.0
    for i, s in enumerate(spans):
        self_s[s.module] += (s.end - s.start) - child_time[i]
        if s.parent < 0 or spans[s.parent].module != s.module:
            calls[s.module] += 1
        if s.module == "engine" and s.name == "run_experiment":
            write_s += (s.end - s.start) - cell_time[i]
    return dict(self_s), dict(calls), write_s
