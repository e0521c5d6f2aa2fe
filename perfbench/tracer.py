"""Spans around calls into qsink, recorded from outside the package.

`Tracer` replaces every public function of the traced modules with a
wrapper, in every `qsink` module namespace that binds it (and inside module
tuples such as `validate.ALL_SUITES`), and puts the originals back on exit.
Each call records a span: name, start, end and parent span.  Spans stay in
memory, in flat arrays, until the caller summarizes or saves them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED_MODULES = ("dynamics", "sinkhorn", "entanglement", "ptm", "linalg", "cli", "validate")
_TRACED = {f"qsink.{m}": m for m in TRACED_MODULES}


def _span_name(value) -> str | None:
    if inspect.isfunction(value) and value.__module__ in _TRACED:
        if not value.__name__.startswith("_"):
            return f"{_TRACED[value.__module__]}.{value.__name__}"
    return None


def qsink_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qsink" or name.startswith("qsink."))]


class Tracer:
    """Context manager that wraps qsink's public functions while active.

    hooks maps a span name to fn(args, kwargs, result, counters), called
    after each successful call, for counts that need arguments or results.
    """

    def __init__(self, hooks: dict | None = None) -> None:
        self.hooks = hooks or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.errors: Counter = Counter()
        self.binding_calls: Counter = Counter()  # (namespace, span name) -> calls
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, namespace: str, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = self.hooks.get(name)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        stack, errors, binding_calls = self._stack, self.errors, self.binding_calls
        counters = self.counters
        key = (namespace, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            parents.append(stack[-1])
            name_ids.append(name_id)
            ends.append(0.0)
            stack.append(span)
            binding_calls[key] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module in qsink_modules():
            namespace = module.__name__
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                name = _span_name(value)
                if name is not None:
                    replacement = self._wrap(namespace, name, value)
                elif isinstance(value, tuple) and value and all(_span_name(v) for v in value):
                    replacement = tuple(self._wrap(namespace, _span_name(v), v) for v in value)
                else:
                    continue
                self._saved.append((module, attr, value))
                setattr(module, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (span time), self_s (minus child spans), errors."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        name_ids = np.frombuffer(self.name_ids, dtype=np.int64)
        duration = ends - starts
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=duration[nested], minlength=len(starts))
        n = len(self.names)
        calls = np.bincount(name_ids, minlength=n)
        busy = np.bincount(name_ids, weights=duration, minlength=n)
        self_time = np.bincount(name_ids, weights=duration - child_time, minlength=n)
        return {
            name: {"calls": int(calls[k]), "busy_s": float(busy[k]),
                   "self_s": float(self_time[k]), "errors": self.errors[name]}
            for k, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        """Write every span (index = span id) as arrays in one .npz file."""
        np.savez(path, start=np.frombuffer(self.starts), end=np.frombuffer(self.ends),
                 parent=np.frombuffer(self.parents, dtype=np.int64),
                 name_id=np.frombuffer(self.name_ids, dtype=np.int64),
                 names=np.array(self.names))

