"""In-memory span tracer for the library's public layer functions.

The library binds many functions by name at import time (``optimize`` does
``from .engine import output_distribution``, ``engine`` does
``from .statistics import pmf_array`` and so on).  Patching only the module
that defines a function would therefore miss most calls, so ``Tracer``
replaces the function object under every name in every ``muxsps`` module
that holds it, and restores the originals on exit.

Spans are kept in a list while tracing and are written out once, at the end
(``write_csv``).  A span records its layer name, the id of the operation it
belongs to, its parent span, and its start and end times; a layer's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from functools import wraps


@dataclass(frozen=True)
class Target:
    """One traced function: metric prefix, defining module and attribute."""

    metric: str
    module: str
    attr: str
    keep_result: bool = False


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    result_sum: float = 0.0


def _library_function(module: str, attr: str):
    """``muxsps.<module>.<attr>``; a missing one is an error, not a zero count."""
    fn = getattr(importlib.import_module(f"muxsps.{module}"), attr, None)
    if fn is None:
        raise LookupError(f"muxsps.{module} has no {attr} to trace")
    return fn


def lru_caches(caches) -> list:
    """(metric, function) for each (metric, module, attr) of an lru_cache."""
    found = []
    for metric, module, attr in caches:
        fn = _library_function(module, attr)
        if not hasattr(fn, "cache_info"):
            raise LookupError(f"muxsps.{module}.{attr} is not an lru_cache")
        found.append((metric, fn))
    return found


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "muxsps" or name.startswith("muxsps.")]


class Tracer:
    """Context manager that records spans around calls to ``targets``.

    ``caches`` lists (metric, module, attr) of ``lru_cache`` functions whose
    hit ratios are read from the original ``cache_info()``; the caches are
    cleared on entry so every traced pass starts cold.  A target or cache
    missing from the library raises ``LookupError``, so a renamed layer
    cannot read as zero calls.
    """

    def __init__(self, targets: list[Target], caches: list[tuple[str, str, str]]):
        self.targets = targets
        self.caches = caches
        self.op = -1  # id of the operation the next spans belong to
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.cache_stats: dict[str, tuple[int, int]] = {}

    def __enter__(self) -> Tracer:
        # clear through the originals, before the wrappers hide cache_clear
        for _, cached in lru_caches(self.caches):
            cached.cache_clear()
        originals = [(target, _library_function(target.module, target.attr)) for target in self.targets]
        for target, original in originals:
            wrapper = self._wrap(target, original)
            for lib in _library_modules():
                for name, value in list(vars(lib).items()):
                    if value is original:
                        setattr(lib, name, wrapper)
                        self._patched.append((lib, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for lib, name, original in reversed(self._patched):
            setattr(lib, name, original)
        self._patched.clear()
        for metric, cached in lru_caches(self.caches):
            info = cached.cache_info()
            hits, misses = self.cache_stats.get(metric, (0, 0))
            self.cache_stats[metric] = (hits + info.hits, misses + info.misses)

    def _wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        metric, keep = target.metric, target.keep_result

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[slot] = (metric, self.op, parent, t0, t1, result if keep else None)

        return traced

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, inclusive time, self time and summed results per target."""
        child_s = [0.0] * len(self.spans)
        for metric, _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out = {target.metric: LayerTotals() for target in self.targets}
        for k, (metric, _, _, t0, t1, result) in enumerate(self.spans):
            layer = out[metric]
            layer.calls += 1
            layer.total_s += t1 - t0
            layer.self_s += t1 - t0 - child_s[k]
            if result is not None:
                layer.result_sum += result
        return out

    def hit_ratio(self, metric: str) -> float:
        hits, misses = self.cache_stats.get(metric, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def write_csv(self, path) -> None:
        """Write every span, times relative to the first span's start."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("span,parent,op,layer,start_s,end_s\n")
            for k, (metric, op, parent, t0, t1, _) in enumerate(self.spans):
                handle.write(f"{k},{parent},{op},{metric},{t0 - origin:.9f},{t1 - origin:.9f}\n")
