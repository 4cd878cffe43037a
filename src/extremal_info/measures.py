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

import math
import operator
import threading
from dataclasses import dataclass
from functools import partial
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
# The weights depend only on n, the profile factors only on the member,
# and the integrals of the paper's grid revisit a few dozen panels, which
# numerics' panel index holds by id.  So the route keeps factor tables
# with one row per panel of the index, in id order, each holding both
# measures' factors, H's first: per n the two weights, each by pow, and per
# member ln I and I, from the family record through float() as the public
# density_quantile does (an I that underflowed to 0 has ln I = -inf, so an
# H panel fails as non-finite instead of in math.log).  A table read while
# shorter than the walk's copy of the index is first extended to it, so a
# member's profile is also taken on panels only other members visited; as
# a family record's density_quantile is defined and silent on all of
# (0, 1), each row is the one the member's own integrand would give.
#
# The unit of work is the (member, n) cell: _quadrature takes one walk of
# the index, reads the cell's two tables once and rules every panel the
# index held when it started, for each requested measure, in one numpy
# pass of numerics._gk15_rows.  It then runs the adaptive loop once per
# measure, H first, on that walk, handing it the measure's row of the pass
# as two lists, values and errors by id, off which the loop reads a held
# panel with no call.  Any other panel goes through the scalar integrand
# and numerics._gk15; the panels the cell visited join the index once
# every integral of it has returned, so a failed cell lists nothing.
# Every value is the same product of the same floats as the point
# integrand on the public API, and _gk15_rows sums as _gk15 does, so every
# route gives the same bits, one measure or both.
#
# On the paper's grid (catalog x TABLE_N, as tables and verify run it) the
# index holds 59 panels, the 23 fixed ones among them, and 35 tables are
# read (30 members and 5 n), well inside the caps: the index stops at
# numerics._PANEL_CAP panels, past which new panels stay on the scalar
# path, and only the _TABLE_CAP tables read last are kept.
# ---------------------------------------------------------------------------

_TABLE_CAP = 64
_MEASURES = "HJ"  # the order of the rows of every factor table


def _profile_row(dist, ts: tuple) -> tuple[tuple, tuple]:
    """(ln I(t), I(t)) at each node of one panel; ln 0 is -inf."""
    profile = dist_mod.REGISTRY[dist.family].density_quantile
    values = tuple(map(float, map(profile, repeat(dist), ts)))
    return tuple(math.log(i) if i else -math.inf for i in values), values


def _weight_row(n: int, measure: str, ts: tuple) -> tuple:
    """At each node of one panel, n y^(n-1) for H or -(n^2/2) t^(2n-2) for J."""
    if measure == "H":
        factor, power = n, n - 1
    else:
        factor, power = -(0.5 * n * n), 2 * n - 2
    return tuple(map(operator.mul, repeat(factor), map(pow, ts, repeat(power))))


def _weight_rows(n: int, ts: tuple) -> tuple[tuple, tuple]:
    """H's and J's weights at each node of one panel."""
    return tuple(_weight_row(n, measure, ts) for measure in _MEASURES)


class _Tables:
    """The factor tables, with a row for each panel of numerics' index in
    id order, for the index ``epoch`` they were read under: a walk from
    another epoch (the index was cleared) empties them first.  Reads and
    writes hold ``lock``, as integrals on other threads share the
    tables."""

    def __init__(self):
        self.lock = threading.Lock()
        self.epoch = None
        self.factors: dict = {}  # n or member -> (2, P, 15) table

    def _read(self, key, rows, walk: numerics._Walk) -> np.ndarray:
        """Factor table ``key``, the two factors ``rows(ts)`` gives at the
        nodes of each panel the walk found listed as a (2, P, 15) array,
        extended to them if shorter, as the most recently read table; the
        least recently read go past _TABLE_CAP."""
        table = self.factors.pop(key, None)
        have = 0 if table is None else table.shape[1]
        if have < walk.listed:
            new = np.array(list(zip(*(rows(panel[2]) for panel in walk.panels[have : walk.listed]))))
            table = new if table is None else np.concatenate((table, new), axis=1)
        while len(self.factors) >= _TABLE_CAP:
            del self.factors[next(iter(self.factors))]
        self.factors[key] = table
        return table[:, : walk.listed]

    def cell(self, dist, n: int, walk: numerics._Walk) -> tuple[np.ndarray, np.ndarray]:
        """The weight table of n and the profile table of ``dist``, each
        (2, P, 15) over the panels the walk found listed."""
        with self.lock:
            if self.epoch != walk.epoch:
                self.factors.clear()
                self.epoch = walk.epoch
            weights = self._read(n, partial(_weight_rows, n), walk)
            profile = self._read(dist, partial(_profile_row, dist), walk)
        return weights, profile


_tables = _Tables()


def _quadrature(dist, n: int, measures: str, tol: float) -> list[numerics.QuadratureResult]:
    """The quadrature of each measure in ``measures`` -- "H", "J" or "HJ" --
    of the maximum of n draws from ``dist``, in that order, as results in
    the measure's own units: one walk, one read of the cell's tables and
    one numpy pass for them all.  The first integral that fails raises, with
    its best estimate in its measure's units, and the cell lists no panel."""
    walk = numerics._index.walk()
    rows = slice(_MEASURES.index(measures[0]), _MEASURES.index(measures[-1]) + 1)
    weights, profile = _tables.cell(dist, n, walk)
    vk, err = numerics._gk15_rows(weights[rows], profile[rows], walk.dtdu, walk.half)
    results = [
        _integral(dist, n, measure, vks, errs, tol, walk)
        for measure, vks, errs in zip(measures, vk.tolist(), err.tolist())
    ]
    numerics._index.add(walk)
    return results


def _integral(dist, n: int, measure: str, vks: list, errs: list, tol: float, walk: numerics._Walk):
    """One measure's integral on the cell's walk, ``vks`` and ``errs``
    holding the value and error of each listed panel by id; H leaves as
    1 - ln n - 1/n less the integral, its best estimate too if it fails."""
    row = _MEASURES.index(measure)

    def integrand(ts: tuple):
        return map(operator.mul, _weight_row(n, measure, ts), _profile_row(dist, ts)[row])

    def rule(i: int) -> tuple[float, float]:  # a panel the index did not hold
        return numerics._gk15(integrand, walk.panel(i))

    if measure == "J":
        return numerics._integrate(rule, tol, walk, vks, errs)
    shift = 1.0 - math.log(n) - 1.0 / n
    try:
        q = numerics._integrate(rule, tol, walk, vks, errs)
    except numerics.QuadratureError as exc:
        best = exc.best
        if best is not None:
            exc.best = numerics.QuadratureResult(shift - best.value, best.error_estimate, best.evaluations)
        raise
    return numerics.QuadratureResult(shift - q.value, q.error_estimate, q.evaluations)


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
        (q,) = _quadrature(dist, n, "H", quad_tol)
        return q.value, method, q.error_estimate
    est = numerics.mc_entropy_max(dist, n, samples=samples, seed=seed)
    return est.estimate, method, est.std_error


def _extropy(
    dist, n: int, method: str, quad_tol: float, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> tuple:
    """J of the maximum of n draws by ``method``, as (value, method, error)."""
    if method == "closed_form":
        return dist_mod.REGISTRY[dist.family].extropy(dist, n), method, 0.0
    if method == "quadrature":
        (q,) = _quadrature(dist, n, "J", quad_tol)
        return q.value, method, q.error_estimate
    est = numerics.mc_extropy_max(dist, n, samples=samples, seed=seed)
    return est.estimate, method, est.std_error


def _both(
    dist, n: int, method: str, quad_tol: float, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> tuple[tuple, tuple]:
    """H and J of the maximum of n draws by ``method``, each as (value,
    method, error); the quadrature takes both from one cell."""
    if method == "quadrature":
        return tuple((q.value, method, q.error_estimate) for q in _quadrature(dist, n, "HJ", quad_tol))
    route = method, quad_tol, samples, seed
    return _shannon(dist, n, *route), _extropy(dist, n, *route)


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
    j_gap.  Both closed forms are taken first, then both quadratures from
    one (member, n) cell, H first, so a failing H integral raises as
    :func:`shannon_max` does, before J's runs.  The ``tables`` command
    builds its rows from it; the verification suite checks the same
    agreement on the same cells in
    :func:`extremal_info.verify.closed_vs_quadrature`.
    """
    n = _check_index(n, "crosscheck")
    quad_tol = _check_real(quad_tol, "quad_tol")
    h_closed = _shannon(dist, n, "closed_form", quad_tol)[0]
    j_closed = _extropy(dist, n, "closed_form", quad_tol)[0]
    h_quad, j_quad = (q.value for q in _quadrature(dist, n, "HJ", quad_tol))
    return {
        "h_closed": h_closed,
        "h_quad": h_quad,
        "h_gap": abs(h_closed - h_quad),
        "j_closed": j_closed,
        "j_quad": j_quad,
        "j_gap": abs(j_closed - j_quad),
    }
