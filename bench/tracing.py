"""In-memory call spans around kickflow's public functions.

The tracer wraps every public function of the traced modules and rebinds
the wrapper in every ``kickflow`` namespace that holds the original, so
calls made through ``from .dynamics import flow`` are seen as well as
calls through the package.  Spans stay in memory as
``[name, start, end, parent_index, count]`` lists; ``aggregate`` turns
them into per-function call counts and self times, where self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

MODULES = ("basis", "noise", "dynamics", "linearization", "stabilisation",
           "ergodicity", "experiments", "cli")

# Work counted at the boundary of a call: span name -> size of its arguments.
COUNTERS = {
    "dynamics.advance_columns": lambda args, kwargs: args[0].shape[1],
    "ergodicity.bl_distance_1d": lambda args, kwargs: len(args[0]) + len(args[2]),
    "ergodicity.dual_lipschitz_lower": lambda args, kwargs: args[0].n_particles + args[1].n_particles,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    count(args, kwargs) if count else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, package: str = "kickflow") -> None:
        """Wrap the public functions of ``MODULES`` wherever they are bound."""
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if (callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == mod.__name__):
                    wrapped[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


def aggregate(spans) -> dict[str, dict]:
    """Per-name ``{"calls", "self_s", "total_s", "count"}`` from a list of spans.

    Counted spans are also summed under ``name@count``, so that calls of
    one size can be told from calls of another.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, count) in enumerate(spans):
        for key in (name, f"{name}@{count}") if count else (name,):
            row = out.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[i]
            row["total_s"] += end - start
            row["count"] += count
    return out
