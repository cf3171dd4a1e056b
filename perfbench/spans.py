"""Span recording around longmem's public functions, installed from outside.

:class:`Tracer` replaces each layer function listed in ``LAYERS`` with a
wrapper in every ``longmem`` module namespace that binds it, so calls made
between modules (``hurst`` calling ``scaling.fluctuation``, ``dcca`` calling
``scaling.detrended_segments``) are seen too.  Spans are kept in memory as
``[name, start, end, parent]`` rows, the list index being the span id, and
are written out once at the end.  The tracer keeps one call stack, so it
must only observe single-threaded calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ("main",),
    "series": ("load_panel", "align", "series_profile", "panel_to_csv"),
    "scaling": ("fluctuation", "detrended_segments"),
    "hurst": ("hurst_distribution", "fit_hurst", "detect_crossover"),
    "dcca": ("pairwise_matrix", "rho_vs_scale", "rho_from_profiles"),
    "network": ("split_periods", "build_network", "detect_communities",
                "to_graphml", "to_dot"),
    "synthetic": ("generate_blocks",),
}


def _align_counts(args, kwargs, result) -> dict[str, int]:
    panel = args[0] if args else kwargs["panel"]
    filled = 0
    for before, after in zip(panel.series, result.series):
        have = set(before.dates)
        filled += sum(d not in have for d in after.dates)
    return {"series.dates_dropped": len(panel.date_index) - len(result.date_index),
            "series.cells_filled": filled}


# Data-derived counter increments, taken from a call's arguments and result
# after its span has closed, so they cost trace overhead but no layer time.
_OBSERVERS = {
    "series.load_panel": lambda a, k, r: {
        "series.cells_read": sum(len(s.values) for s in r.series)},
    "series.align": _align_counts,
    "scaling.detrended_segments": lambda a, k, r: {
        "scaling.residual_bytes": r.nbytes},
    "hurst.hurst_distribution": lambda a, k, r: {"hurst.failures": len(r.failures)},
    "network.build_network": lambda a, k, r: {"network.edges": r.n_edges},
}

# Calls whose exception is a counted failure rather than a bug.
_FAILURE_COUNTERS = {"hurst.detect_crossover": "hurst.failures"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every layer function wherever a longmem module binds it."""
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"longmem.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "longmem" and not mod_name.startswith("longmem."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        failure_counter = _FAILURE_COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failure_counter:
                    counts[failure_counter] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Span parents index into the same list.
    """
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for name, start, end, parent in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start
        if parent is not None:
            out[spans[parent][0]]["self_s"] -= end - start
    return dict(out)
