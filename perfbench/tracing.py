"""Outside-in tracing of the extremal_info layers.

The tracer replaces public entry points with wrappers, as module
attributes, and puts the originals back on exit.  Nothing under ``src/``
changes: calls that go through a module attribute (``dist_mod.quantile``,
``numerics.integrate_unit``, a module-global call inside the same module)
see the wrapper, and the copies of ``special`` functions that ``measures``
and ``bounds`` bind with ``from .special import`` are patched where they
are bound.

Calls above the ``distributions`` and ``special`` leaves become spans
``(name, layer, start, end, parent)``.  Leaves are too hot for a span each
(one ``tables`` run calls scalar ``density_quantile`` about 170k times), so
for them the tracer keeps a call count and the summed time per parent span.
A leaf called from inside another leaf (``pdf`` -> ``log_pdf``, the gev
``sup_density`` optimizer -> ``density_quantile``) is counted but not
timed, since its time is already inside the outer leaf.
"""

from __future__ import annotations

import gzip
import inspect
from contextlib import contextmanager
from time import perf_counter

from extremal_info import (
    bounds,
    cli,
    distributions,
    evt,
    measures,
    numerics,
    special,
    verify,
)

LAYERS = ("cli", "verify", "bounds", "evt", "measures", "numerics", "distributions", "special")
BENCH_LAYER = "bench"

# Trivial predicates that would only add span noise.
_SKIP = {"is_indeterminate"}

DISTRIBUTION_LEAVES = (
    "log_pdf",
    "pdf",
    "cdf",
    "quantile",
    "density_quantile",
    "sup_density",
    "is_log_concave",
)


def _public_functions(module):
    for name in module.__all__:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and name not in _SKIP:
            yield name


def _span_targets():
    targets = [(cli, "main", "cli"), (verify, "run_all", "verify")]
    for module, layer in ((bounds, "bounds"), (evt, "evt"), (measures, "measures")):
        targets += [(module, name, layer) for name in _public_functions(module)]
    targets += [(numerics, "integrate_unit", "numerics")]
    targets += [(numerics, name, "numerics") for name in numerics.__all__ if name.startswith("mc_")]
    return targets


def _leaf_targets():
    targets = [(distributions, name, "distributions") for name in DISTRIBUTION_LEAVES]
    for name in _public_functions(special):
        targets.append((special, name, "special"))
        for module in (measures, bounds):
            if getattr(module, name, None) is getattr(special, name):
                targets.append((module, name, "special"))
    return targets


class Tracer:
    """Collects spans and leaf aggregates while installed (a context manager)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, seconds]
        self.leaf_layer: dict[str, str] = {}
        self.evaluations = 0  # integrand evaluations seen by integrate_unit
        self._stack: list[int] = []
        self._leaf_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for module, attr, layer in _span_targets():
            self._patch(module, attr, self._span_wrapper(f"{layer}.{attr}", layer, getattr(module, attr)))
        for module, attr, layer in _leaf_targets():
            name = f"{layer}.{attr}"
            self.leaf_layer[name] = layer
            self._patch(module, attr, self._leaf_wrapper(name, getattr(module, attr)))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str = BENCH_LAYER):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name, layer)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = perf_counter()

    def _span_wrapper(self, name, layer, original):
        is_quad = name == "numerics.integrate_unit"

        def wrapper(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = original(*args, **kwargs)
            except numerics.QuadratureError as exc:
                if is_quad and exc.best is not None:
                    self.evaluations += exc.best.evaluations
                raise
            finally:
                self._close(idx)
            if is_quad:
                self.evaluations += result.evaluations
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _leaf_wrapper(self, name, original):
        def wrapper(*args, **kwargs):
            key = (self._stack[-1] if self._stack else -1, name)
            rec = self.leaves.get(key)
            if rec is None:
                rec = self.leaves[key] = [0, 0.0]
            rec[0] += 1
            if self._leaf_depth:
                return original(*args, **kwargs)
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                rec[1] += perf_counter() - t0
                self._leaf_depth -= 1

        wrapper.__wrapped__ = original
        return wrapper

    # -- summaries ------------------------------------------------------------

    def leaf_calls(self, name: str) -> int:
        return sum(rec[0] for (_, leaf), rec in self.leaves.items() if leaf == name)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: span time minus child spans and leaves."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in (*LAYERS, BENCH_LAYER)}
        for (parent, name), (_, seconds) in self.leaves.items():
            out[self.leaf_layer[name]] += seconds
            if parent >= 0:
                child[parent] += seconds
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return out

    def write_spans(self, path) -> None:
        """Write spans as gzip CSV rows: id, parent, name, start_us, end_us."""
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for i, (name, _, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}\n")

