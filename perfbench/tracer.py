"""In-memory spans recorded from outside the package, around its public calls.

A span is (name, layer, start, end, parent, workload).  Spans are kept in a
list while the run lasts and written out once, at the end.  ``installed``
wraps every function named in ``qcurvature.__all__`` (plus the console entry
point ``qcurvature.cli.main``) in each module namespace that binds it, so
calls between the package's own modules are traced too.  The layer of a
span is the module that defines the function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

NO_PARENT = -1


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str | None):
        """Record one span; yields its index (see ``duration``)."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, layer, time.perf_counter(), 0.0, stack[-1] if stack else NO_PARENT])
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            spans[index][3] = time.perf_counter()

    def duration(self, index: int) -> float:
        _, _, start, end, _ = self.spans[index]
        return end - start

    def wrap(self, fn, name: str, layer: str):
        """``fn`` recording a span per call; ``span`` inlined, as this runs on every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else NO_PARENT])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    @contextmanager
    def installed(self, package):
        """Trace the package's public functions for the duration of the block."""
        modules = package_modules(package)
        wrappers = {}
        for fn in public_functions(package):
            layer = fn.__module__.rsplit(".", 1)[-1]
            wrappers[id(fn)] = self.wrap(fn, f"{layer}.{fn.__name__}", layer)
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_times(self, root: int) -> tuple[dict[str, float], float]:
        """Self time per layer inside span ``root``, and the root's own self time.

        A span's self time is its duration minus the durations of its direct
        children.  The root's own self time is the part of it that no layer
        span covers.
        """
        child_sum = [0.0] * len(self.spans)
        inside = [False] * len(self.spans)
        inside[root] = True
        for i in range(root + 1, len(self.spans)):
            _, _, start, end, parent = self.spans[i]
            if parent != NO_PARENT and inside[parent]:
                inside[i] = True
                child_sum[parent] += end - start
        per_layer: dict[str, float] = {}
        for i in range(root + 1, len(self.spans)):
            if inside[i]:
                _, layer, start, end, _ = self.spans[i]
                per_layer[layer] = per_layer.get(layer, 0.0) + (end - start - child_sum[i])
        return per_layer, self.duration(root) - child_sum[root]

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, layer, start, end, parent in self.spans:
                f.write(json.dumps({
                    "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent, "workload": self.workload,
                }) + "\n")


def package_modules(package) -> list:
    """The package and every submodule, imported."""
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        modules.append(importlib.import_module(info.name))
    return modules


def public_functions(package) -> list:
    """Functions (cached or not) named in ``__all__``, plus ``cli.main``."""
    found = []
    for name in getattr(package, "__all__", ()):
        value = getattr(package, name, None)
        if callable(value) and not inspect.isclass(value):
            found.append(value)
    cli = sys.modules.get(package.__name__ + ".cli")
    if cli is not None and callable(getattr(cli, "main", None)):
        found.append(cli.main)
    return found


def discover_caches(package) -> dict[str, object]:
    """Every ``functools.cache``-style function in the package, by name."""
    caches = {}
    for module in package_modules(package):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                caches[getattr(value, "__qualname__", repr(value))] = value
    return caches


def clear_caches(caches: dict[str, object]) -> None:
    for fn in caches.values():
        fn.cache_clear()
