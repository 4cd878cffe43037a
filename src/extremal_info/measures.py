"""Shannon entropy and extropy of the sample maximum.

For a parent with density f, distribution function F and density-quantile
profile I(t) = f(F^{-1}(t)), the largest of n i.i.d. draws has density
n F^{n-1} f, and its two information measures reduce to one-dimensional
integrals against Beta(n, 1) / power weights:

    H(X_(n)) = 1 - ln n - 1/n - Int_0^1 n y^{n-1} ln I(y) dy
    J(X_(n)) = -(n^2 / 2) Int_0^1 t^{2n-2} I(t) dt

Every catalog family admits a closed form for both, held in its record in
:data:`extremal_info.distributions.REGISTRY`, so the quadrature route
doubles as an independent oracle.  The n -> infinity limits are exposed
as extended reals; the Pareto extropy limit is of the unresolved form
0 x (-inf) and is reported as :data:`INDETERMINATE` rather than silently
collapsed to a number (the closed-form sequence itself tends to 0 from
below).

Normalized maxima (X_(n) - b_n)/a_n obey exact transformation laws --
entropy is location-free but scale-dependent, extropy scales linearly:

    H((X_(n) - b_n)/a_n) = -ln a_n + H(X_(n))
    J((X_(n) - b_n)/a_n) = a_n J(X_(n))

so neither normalized measure depends on b_n.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import distributions as dist_mod
from . import evt
from . import numerics
from .distributions import INDETERMINATE, Indeterminate  # noqa: F401  (distributions exports both)
from .numerics import DEFAULT_QUAD_TOL, DEFAULT_SAMPLES, DEFAULT_SEED
from .special import _check_index, _check_real
from .special import harmonic  # noqa: F401  (perfbench's tracer patches measures.harmonic)

__all__ = [
    "METHODS",
    "MeasureValue",
    "is_indeterminate",
    "shannon_max",
    "extropy_max",
    "shannon_limit",
    "extropy_limit",
    "shannon_normalized",
    "extropy_normalized",
    "crosscheck",
]

METHODS = ("closed_form", "quadrature", "monte_carlo")

_METHOD_ALIASES = {
    "closed": "closed_form",
    "quad": "quadrature",
    "mc": "monte_carlo",
    "closed_form": "closed_form",
    "quadrature": "quadrature",
    "monte_carlo": "monte_carlo",
}


def is_indeterminate(x) -> bool:
    """True when ``x`` is the indeterminate extended-real marker."""
    return isinstance(x, Indeterminate)


@dataclass(frozen=True)
class MeasureValue:
    """An information measure with its provenance.

    ``value`` is an extended real (finite, +/-inf, or :data:`INDETERMINATE`);
    ``method`` records which route produced it; ``error_estimate`` is an
    absolute error bound (quadrature) or standard error (Monte Carlo), and
    exactly 0.0 for closed forms.
    """

    value: float
    method: str
    error_estimate: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        # a Python float is already what float() would give
        if type(self.value) is not float and not is_indeterminate(self.value):
            object.__setattr__(self, "value", float(self.value))
        if type(self.error_estimate) is not float:
            object.__setattr__(self, "error_estimate", float(self.error_estimate))
        err = self.error_estimate
        if not (err >= 0.0):
            raise ValueError(f"error_estimate must be nonnegative, got {err!r}")
        if self.method == "closed_form" and err != 0.0:
            raise ValueError("closed-form values carry no error estimate")


def _route(method: str, quad_tol) -> tuple[str, float]:
    """``method``'s canonical name and ``quad_tol`` checked, ``quad_tol`` first."""
    quad_tol = _check_real(quad_tol, "quad_tol")
    try:
        return _METHOD_ALIASES[method], quad_tol
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(set(_METHOD_ALIASES))}"
        ) from None


# ---------------------------------------------------------------------------
# Quadrature forms
#
# Both integrands are a weight times a profile factor, taken a GK15 panel
# at a time through numerics._integrate:
#
#     H:  n y^(n-1)            x  ln I(y)
#     J:  -(n^2/2) t^(2n-2)    x  I(t)
#
# The weights depend only on (n, measure), the profile factors only on the
# member, and the integrals of the paper's grid revisit a few dozen panels.
# So the route keeps a panel list -- every panel an integral has visited,
# in the order first visited -- and factor tables with one row per listed
# panel: per (n, measure) the weights, each by pow, and per member I and
# ln I, from the family record through float() as the public
# density_quantile does (an I that underflowed to 0 has ln I = -inf, so an
# H panel fails as non-finite instead of in math.log).  A table read while
# shorter than the list is first extended to it, so a member's profile is
# also taken on panels only other members visited; as a family record's
# density_quantile is defined and silent on all of (0, 1), each row is the
# one the member's own integrand would give.
#
# Each integral rules every listed panel in one numpy pass of
# numerics._gk15_rows, and its panel rule reads a listed panel's
# (value, error) from that pass.  Any other panel goes through the scalar
# integrand and numerics._gk15; the panels it visited join the list once
# the integral has returned, so a failed one lists nothing.  Every value
# is the same product of the same floats as the point integrand on the
# public API, and _gk15_rows sums as _gk15 does, so every route gives the
# same bits.
#
# On the paper's grid (catalog x TABLE_N, as tables and verify run it) the
# list holds 59 panels and 40 tables are read, well inside the caps: the
# list stops at _ROW_CAP panels, past which new panels stay on the scalar
# path, and only the _TABLE_CAP tables read last are kept.
# ---------------------------------------------------------------------------

_ROW_CAP = 256
_TABLE_CAP = 64


def _profile_row(dist, ts: tuple) -> tuple[tuple, tuple]:
    """(I(t), ln I(t)) at each node of one panel; ln 0 is -inf."""
    profile = dist_mod.REGISTRY[dist.family].density_quantile
    values = tuple(map(float, map(profile, repeat(dist), ts)))
    return values, tuple(math.log(i) if i else -math.inf for i in values)


def _weight_row(n: int, measure: str, ts: tuple) -> tuple:
    """At each node of one panel, n y^(n-1) for H or -(n^2/2) t^(2n-2) for J."""
    if measure == "H":
        factor, power = n, n - 1
    else:
        factor, power = -(0.5 * n * n), 2 * n - 2
    return tuple(map(operator.mul, repeat(factor), map(pow, ts, repeat(power))))


class _Tables:
    """The panel list, an ordered set of (a, b) whose nodes and dt/du come
    from numerics._panel_nodes, with dt/du and half-widths as arrays in list
    order, and the factor tables; ``cache_clear`` empties them all.  Reads
    and writes hold ``lock``, as integrals on other threads share the
    tables."""

    def __init__(self):
        self.lock = threading.Lock()
        self.cache_clear()

    def cache_clear(self) -> None:
        with self.lock:
            self.panels: dict[tuple[float, float], None] = {}
            self.dtdu, self.half = np.zeros((0, 15)), np.zeros(0)
            self.factors: dict = {}  # (n, measure) or member -> (k, P, 15) table

    def add(self, keys) -> None:
        """List the panels ``keys`` not listed yet, in order, while the list
        is shorter than _ROW_CAP."""
        new = [key for key in keys if key not in self.panels][: _ROW_CAP - len(self.panels)]
        if new:
            self.panels.update(dict.fromkeys(new))
            self.dtdu = np.concatenate((self.dtdu, [numerics._panel_nodes(*key)[1] for key in new]))
            self.half = np.concatenate((self.half, [0.5 * (b - a) for a, b in new]))

    def _read(self, key, rows) -> np.ndarray:
        """Factor table ``key``, the k factors ``rows(ts)`` gives at the
        nodes of each listed panel as a (k, P, 15) array, extended to the
        list if shorter, as the most recently read table; the least
        recently read go past _TABLE_CAP."""
        table = self.factors.pop(key, None)
        have = 0 if table is None else table.shape[1]
        if have < len(self.panels):
            listed = itertools.islice(self.panels, have, None)
            new = np.array(list(zip(*(rows(numerics._panel_nodes(*panel)[0]) for panel in listed))))
            table = new if table is None else np.concatenate((table, new), axis=1)
        while len(self.factors) >= _TABLE_CAP:
            del self.factors[next(iter(self.factors))]
        self.factors[key] = table
        return table

    def known(self, dist, n: int, measure: str) -> dict:
        """(a, b) -> (value, error) of the (n, measure) integrand of ``dist``
        on every listed panel, in one numpy pass."""
        if not self.panels:
            return {}
        (weights,) = self._read((n, measure), lambda ts: (_weight_row(n, measure, ts),))
        values, logs = self._read(dist, lambda ts: _profile_row(dist, ts))
        factor = logs if measure == "H" else values
        vk, err = numerics._gk15_rows(weights, factor, self.dtdu, self.half)
        return dict(zip(self.panels, zip(vk.tolist(), err.tolist())))


_tables = _Tables()


def _quad(dist, n: int, measure: str, tol: float) -> numerics.QuadratureResult:
    """The (n, measure) integral of ``dist`` through the tables."""
    with _tables.lock:
        known = _tables.known(dist, n, measure)
    listed = len(known)

    def integrand(ts: tuple):
        values, logs = _profile_row(dist, ts)
        return map(operator.mul, _weight_row(n, measure, ts), logs if measure == "H" else values)

    def rule(a: float, b: float) -> tuple[float, float]:
        found = known.get((a, b))
        if found is None:
            found = known[a, b] = numerics._gk15(integrand, a, b)
        return found

    result = numerics._integrate(rule, tol)
    with _tables.lock:
        _tables.add(itertools.islice(known, listed, None))
    return result


# The routes: cores that take checked arguments and a canonical method and
# give (value, method, error estimate).  Each public entry point checks its
# own arguments once, under its own name, and calls them.  A failed
# integral's best estimate leaves in the units of the value the call
# returns.


def _shannon(
    dist, n: int, method: str, quad_tol: float, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> tuple:
    """H of the maximum of n draws by ``method``, as (value, method, error)."""
    if method == "closed_form":
        return dist_mod.REGISTRY[dist.family].shannon(dist, n), method, 0.0
    if method == "quadrature":
        shift = 1.0 - math.log(n) - 1.0 / n
        try:
            q = _quad(dist, n, "H", quad_tol)
        except numerics.QuadratureError as exc:
            best = exc.best
            if best is not None:
                exc.best = numerics.QuadratureResult(shift - best.value, best.error_estimate, best.evaluations)
            raise
        return shift - q.value, method, q.error_estimate
    est = numerics.mc_entropy_max(dist, n, samples=samples, seed=seed)
    return est.estimate, method, est.std_error


def _extropy(
    dist, n: int, method: str, quad_tol: float, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> tuple:
    """J of the maximum of n draws by ``method``, as (value, method, error)."""
    if method == "closed_form":
        return dist_mod.REGISTRY[dist.family].extropy(dist, n), method, 0.0
    if method == "quadrature":
        q = _quad(dist, n, "J", quad_tol)
        return q.value, method, q.error_estimate
    est = numerics.mc_extropy_max(dist, n, samples=samples, seed=seed)
    return est.estimate, method, est.std_error


# ---------------------------------------------------------------------------
# Public measures
# ---------------------------------------------------------------------------


def shannon_max(
    dist,
    n: int,
    method: str = "closed_form",
    *,
    quad_tol: float = DEFAULT_QUAD_TOL,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> MeasureValue:
    """Shannon entropy H of the maximum of n i.i.d. draws from ``dist``.

    ``method`` selects the route: ``closed_form`` (exact per-family
    expression), ``quadrature`` (the density-quantile integral), or
    ``monte_carlo`` (plug-in estimate; ``samples`` and ``seed`` apply).
    The CLI short names closed/quad/mc are accepted as aliases.
    ``quad_tol``, the quadrature's absolute tolerance, is checked on every
    route.
    """
    n = _check_index(n, "shannon_max")
    return MeasureValue(*_shannon(dist, n, *_route(method, quad_tol), samples, seed))


def extropy_max(
    dist,
    n: int,
    method: str = "closed_form",
    *,
    quad_tol: float = DEFAULT_QUAD_TOL,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> MeasureValue:
    """Extropy J of the maximum of n i.i.d. draws from ``dist``.

    Same routes as :func:`shannon_max`.  For the gev family the closed form
    requires xi > -2; below that the measure is -inf and a domain error is
    raised instead of evaluating an invalid expression.
    """
    n = _check_index(n, "extropy_max")
    return MeasureValue(*_extropy(dist, n, *_route(method, quad_tol), samples, seed))


def shannon_limit(dist) -> float:
    """Limit of H(X_(n)) as n -> infinity, as an extended real."""
    return dist_mod.REGISTRY[dist.family].limits(dist)[0]


def extropy_limit(dist):
    """Limit of J(X_(n)) as n -> infinity, as an extended real.

    For the Pareto family the defining product is of the form 0 x (-inf)
    and the limit is reported as :data:`INDETERMINATE`; the closed-form
    sequence itself increases to 0 from below.
    """
    return dist_mod.REGISTRY[dist.family].limits(dist)[1]


def shannon_normalized(dist, n: int) -> MeasureValue:
    """Entropy of the normalized maximum (X_(n) - b_n)/a_n, in closed form.

    Equal to -ln a_n + H(X_(n)), with a_n from :func:`norming_constants
    <extremal_info.evt.norming_constants>`; the centering b_n never enters.
    """
    n = _check_index(n, "shannon_normalized")
    a_n = evt._norming(dist, n)[0]
    return MeasureValue(dist_mod.REGISTRY[dist.family].shannon(dist, n) - math.log(a_n), "closed_form")


def extropy_normalized(dist, n: int) -> MeasureValue:
    """Extropy of the normalized maximum (X_(n) - b_n)/a_n, in closed form.

    Equal to a_n * J(X_(n)), with a_n from :func:`norming_constants
    <extremal_info.evt.norming_constants>`; the centering b_n never enters.
    """
    n = _check_index(n, "extropy_normalized")
    a_n = evt._norming(dist, n)[0]
    return MeasureValue(a_n * dist_mod.REGISTRY[dist.family].extropy(dist, n), "closed_form")


def crosscheck(dist, n: int, *, quad_tol: float = DEFAULT_QUAD_TOL) -> dict:
    """Closed form vs quadrature for both measures, with absolute gaps.

    Returns a dict with keys h_closed, h_quad, h_gap, j_closed, j_quad,
    j_gap.  Used by the table reproduction command and the verification
    suite.
    """
    n = _check_index(n, "crosscheck")
    quad_tol = _check_real(quad_tol, "quad_tol")
    h_closed = _shannon(dist, n, "closed_form", quad_tol)[0]
    h_quad = _shannon(dist, n, "quadrature", quad_tol)[0]
    j_closed = _extropy(dist, n, "closed_form", quad_tol)[0]
    j_quad = _extropy(dist, n, "quadrature", quad_tol)[0]
    return {
        "h_closed": h_closed,
        "h_quad": h_quad,
        "h_gap": abs(h_closed - h_quad),
        "j_closed": j_closed,
        "j_quad": j_quad,
        "j_gap": abs(j_closed - j_quad),
    }
