"""Per-layer tracing of mpf_lab from outside the package.

`Tracer.install` wraps the public functions (every function defined in the
module whose name has no leading underscore) of every mpf_lab module and
puts each wrapper wherever the original is looked up: the defining module
and every module that imported the name (`from .commutators import
build_table`). Each call records a span (name, start, end, parent span);
a function's self time is its span's duration minus the time of the
wrapped calls inside it. Counters are per round: `take_round` returns
and clears them, while spans are kept for the trace file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import mpf_lab

# Work counters beyond the call count, read from each call's arguments:
# function -> (counter, count from the bound arguments).
EXTRA_COUNTERS = {
    "pauli.commutator_weight_table": (
        "pauli.commutator_weight_table.levels", lambda a: int(a["depth"])),
    "formulas.evaluate_spec": (
        "formulas.stage_applications", lambda a: len(a["spec"].stages)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._round = 0
        self._calls: Counter = Counter()
        self._self_s: defaultdict = defaultdict(float)
        self._total_s: defaultdict = defaultdict(float)
        self._extra: Counter = Counter()
        self.names: list = []

    def install(self) -> None:
        modules = [importlib.import_module(f"mpf_lab.{name}")
                   for name in mpf_lab.__all__]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    self.names.append(f"{short}.{attr}")
                    wrappers[fn] = self._wrap(self.names[-1], fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, name: str, fn):
        extra = EXTRA_COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra:
                counter, count = extra
                self._extra[counter] += count(
                    signature.bind(*args, **kwargs).arguments)
            parent = self._stack[-1][0] if self._stack else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.spans[frame[0]] = (self._round, name, start, end, parent)
                self._calls[name] += 1
                self._self_s[name] += duration - frame[1]
                self._total_s[name] += duration
                if self._stack:
                    self._stack[-1][1] += duration

        return wrapper

    def take_round(self) -> dict:
        """Counters of the round just finished, keyed by metric name."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self._calls[name]
            out[f"{name}.self_s"] = self._self_s[name]
            out[f"{name}.total_s"] = self._total_s[name]
        for counter, _ in EXTRA_COUNTERS.values():
            out[counter] = self._extra[counter]
        self._calls.clear()
        self._self_s.clear()
        self._total_s.clear()
        self._extra.clear()
        self._round += 1
        return out
