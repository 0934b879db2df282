"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of the traced glnls modules
with timing wrappers.  A module that imported a function by name
(`from .spectral import to_physical`) holds its own reference, so every
module attribute that *is* the original function is replaced, not only the
defining module's.  Two methods are patched on their classes:
`models.Stepper.step` and `noise.EnsembleNoise.next_block`.

Spans are kept in memory as per-name aggregates: call count, total time and
self time (span time minus the time of the spans it directly contains), both
in process CPU time (all threads, so a transform's pool threads count), plus
the work counts the metrics need (rows and grid points per transform, rows
per step, normals drawn).  `uninstall()` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

TRACED_MODULES = ("spectral", "noise", "functionals", "models", "coupling", "stats")

# (module, class, method) pairs patched on the class itself
TRACED_METHODS = (("models", "Stepper", "step"), ("noise", "EnsembleNoise", "next_block"))


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0          # leading-axis rows handled (transforms, steps)
    row_points: int = 0    # rows x transform length (transforms)
    items: int = 0         # normals drawn (noise blocks)


def _rows(x) -> int:
    """Number of fields in a (..., M) array."""
    return math.prod(x.shape[:-1])


def _transform_work(name: str, args, kwargs):
    """(rows, transform length) of a to_physical / to_spectral call."""
    x = args[0]
    rows = _rows(x)
    if name == "spectral.to_physical":
        grid = args[1] if len(args) > 1 else kwargs.get("grid")
        length = grid.M if grid is not None else x.shape[-1]
    else:
        length = x.shape[-1]
    return rows, length


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self._child_time: list[float] = []   # one accumulator per open span
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, func):
        stats = self.stats
        stack = self._child_time
        clock = time.process_time  # CPU time, as the end-to-end metrics
        is_transform = name in ("spectral.to_physical", "spectral.to_spectral")
        is_step = name == "models.Stepper.step"
        is_block = name == "noise.EnsembleNoise.next_block"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                s = stats[name]
                s.calls += 1
                s.total_s += dur
                s.self_s += dur - child
            if is_transform:
                rows, length = _transform_work(name, args, kwargs)
                s.rows += rows
                s.row_points += rows * length
            elif is_step:
                s.rows += _rows(args[1])
            elif is_block:
                s.items += out.size
            return out

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = sys.modules["glnls"]
        loaded = [m for key, m in sys.modules.items()
                  if key.startswith("glnls.") and m is not None]
        originals: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = getattr(package, short)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                originals[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        # replace the function wherever a loaded glnls module binds it
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(getattr(package, short), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ------------------------------------------------------

    def group(self, names) -> SpanStats:
        """Sum of the span aggregates of several functions."""
        out = SpanStats()
        for n in names:
            s = self.stats.get(n)
            if s is None:
                continue
            out.calls += s.calls
            out.total_s += s.total_s
            out.self_s += s.self_s
            out.rows += s.rows
            out.row_points += s.row_points
            out.items += s.items
        return out

    def table(self) -> dict:
        return {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                   "rows": s.rows, "row_points": s.row_points, "items": s.items}
            for name, s in sorted(self.stats.items())
        }
