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

so neither normalized measure depends on b_n.  A closed-form
:class:`MeasureValue` is built from its checked parts without
``__post_init__``; the other routes' values keep every check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import repeat

from . import distributions as dist_mod
from . import evt
from . import numerics
from .distributions import INDETERMINATE, Indeterminate  # noqa: F401  (distributions exports both)
from .numerics import DEFAULT_QUAD_TOL, DEFAULT_SAMPLES, DEFAULT_SEED
from .special import _DOUBLE_MAX_INT, _check_index, _check_real, _from_checked
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
        object.__setattr__(self, "value", _extended_real(self.value))
        if type(self.error_estimate) is not float:
            object.__setattr__(self, "error_estimate", float(self.error_estimate))
        err = self.error_estimate
        if not (err >= 0.0):
            raise ValueError(f"error_estimate must be nonnegative, got {err!r}")
        if self.method == "closed_form" and err != 0.0:
            raise ValueError("closed-form values carry no error estimate")


def _extended_real(value):
    """``value`` as a Python float (one already is), or the indeterminate marker."""
    return value if type(value) is float or is_indeterminate(value) else float(value)


def _value(value, method: str, error_estimate: float) -> MeasureValue:
    """A route's (value, method, error) as a MeasureValue; a closed form's
    parts hold, so it skips ``__post_init__`` but for the value's float."""
    if method != "closed_form":
        return MeasureValue(value, method, error_estimate)
    return _from_checked(MeasureValue, value=_extended_real(value), method=method, error_estimate=0.0)


# ---------------------------------------------------------------------------
# Quadrature forms
#
# Both integrands are a weight of n times a profile factor of the member:
#
#     H:  n y^(n-1)            x  ln I(y)
#     J:  -(n^2/2) t^(2n-2)    x  I(t)
#
# so a (member, n) cell is one numerics._cell of two row builders, each
# giving both measures' factors at a panel's nodes, H's first: the floats
# of the public point integrand, I through float() as density_quantile
# takes it, so every route gives the same bits.  An I that underflowed to
# 0 has ln I = -inf, and its H panel fails as non-finite.
# ---------------------------------------------------------------------------

_MEASURES = "HJ"  # the order of each builder's rows


def _profile_row(dist, ts: tuple) -> tuple[tuple, tuple]:
    """(ln I(t), I(t)) at each node of one panel; ln 0 is -inf."""
    profile = dist_mod.REGISTRY[dist.family].density_quantile
    values = tuple(map(float, map(profile, repeat(dist), ts)))
    return tuple(math.log(i) if i else -math.inf for i in values), values


def _weight_rows(n: int, ts: tuple) -> tuple[tuple, tuple]:
    """n y^(n-1) for H and -(n^2/2) t^(2n-2) for J at each node of one panel."""
    return (
        tuple(map(operator.mul, repeat(n), map(pow, ts, repeat(n - 1)))),
        tuple(map(operator.mul, repeat(-(0.5 * n * n)), map(pow, ts, repeat(2 * n - 2)))),
    )


def _quadrature(dist, n: int, measures: str, tol: float) -> list[numerics.QuadratureResult]:
    """The quadrature of each measure in ``measures`` -- "H", "J" or "HJ" --
    of the maximum of n draws from ``dist``, in that order, as results in
    the measure's own units, from one cell.  The first integral that fails
    raises, with its best estimate in its measure's units, and the cell
    lists no panel.  H is 1 - ln n - 1/n less its integral."""
    first = _MEASURES.index(measures[0])
    builders = (n, partial(_weight_rows, n)), (dist, partial(_profile_row, dist))
    shift = 1.0 - math.log(n) - 1.0 / n

    def units(measure: str, q: numerics.QuadratureResult) -> numerics.QuadratureResult:
        if measure == "J":
            return q
        return _from_checked(
            numerics.QuadratureResult, value=shift - q.value, error_estimate=q.error_estimate, evaluations=q.evaluations
        )

    results = []
    try:
        for q in numerics._cell(builders, slice(first, first + len(measures)), tol):
            results.append(units(measures[len(results)], q))
    except numerics.QuadratureError as exc:
        exc.best = units(measures[len(results)], exc.best)
        raise
    return results


# The one core every route passes through: the public measures,
# crosscheck, the bounds reports and gap study, the CLI's measure and
# verify's closed-vs-quadrature contract.  Each caller checks its own n
# once, under its own name; the core checks quad_tol on every route, before
# the method, and maps an alias to the canonical method.  A failed
# integral's best estimate leaves in the units of the value the call
# returns.


def _measures(dist, n: int, which: str, method: str, quad_tol, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED) -> tuple:
    """The measures in ``which`` -- "H", "J" or "HJ" -- of the maximum of n
    draws from ``dist`` by ``method``, each as (value, method, error), in
    that order: the closed forms from the family record, both quadratures
    from one cell, and both Monte Carlo estimates from one draw."""
    quad_tol = _check_real(quad_tol, "quad_tol")
    try:
        method = _METHOD_ALIASES[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(set(_METHOD_ALIASES))}") from None
    if method == "closed_form":
        record = dist_mod.REGISTRY[dist.family]
        if which == "H":
            return ((record.shannon(dist, n), method, 0.0),)
        if which == "J":
            return ((record.extropy(dist, n), method, 0.0),)
        return (record.shannon(dist, n), method, 0.0), (record.extropy(dist, n), method, 0.0)
    if n > _DOUBLE_MAX_INT:  # the weights and the draws take n as a double
        raise OverflowError(f"the {method} route takes n as a double; n={n} for {dist._label} is beyond the doubles")
    if method == "quadrature":
        return tuple((q.value, method, q.error_estimate) for q in _quadrature(dist, n, which, quad_tol))
    estimates = numerics._mc(dist, n, samples, seed, "mc_entropy_max", which)
    return tuple((est.estimate, method, est.std_error) for est in estimates)


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
    return _value(*_measures(dist, n, "H", method, quad_tol, samples, seed)[0])


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
    return _value(*_measures(dist, n, "J", method, quad_tol, samples, seed)[0])


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
    return _value(dist_mod.REGISTRY[dist.family].shannon(dist, n) - math.log(a_n), "closed_form", 0.0)


def extropy_normalized(dist, n: int) -> MeasureValue:
    """Extropy of the normalized maximum (X_(n) - b_n)/a_n, in closed form.

    Equal to a_n * J(X_(n)), with a_n from :func:`norming_constants
    <extremal_info.evt.norming_constants>`; the centering b_n never enters.
    """
    n = _check_index(n, "extropy_normalized")
    a_n = evt._norming(dist, n)[0]
    return _value(a_n * dist_mod.REGISTRY[dist.family].extropy(dist, n), "closed_form", 0.0)


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
    (h_closed, _, _), (j_closed, _, _) = _measures(dist, n, "HJ", "closed_form", quad_tol)
    (h_quad, _, _), (j_quad, _, _) = _measures(dist, n, "HJ", "quadrature", quad_tol)
    return {
        "h_closed": h_closed,
        "h_quad": h_quad,
        "h_gap": abs(h_closed - h_quad),
        "j_closed": j_closed,
        "j_quad": j_quad,
        "j_gap": abs(j_closed - j_quad),
    }
