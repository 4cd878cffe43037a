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

import functools
import math
import operator
from dataclasses import dataclass
from itertools import repeat

from . import distributions as dist_mod
from . import evt
from . import numerics
from .distributions import INDETERMINATE, Indeterminate
from .numerics import DEFAULT_QUAD_TOL, DEFAULT_SAMPLES
from .special import _check_index
from .special import harmonic  # noqa: F401  (perfbench's tracer patches measures.harmonic)

__all__ = [
    "METHODS",
    "MeasureValue",
    "Indeterminate",
    "INDETERMINATE",
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
        if not is_indeterminate(self.value):
            object.__setattr__(self, "value", float(self.value))
        err = float(self.error_estimate)
        if not (err >= 0.0):
            raise ValueError(f"error_estimate must be nonnegative, got {err!r}")
        if self.method == "closed_form" and err != 0.0:
            raise ValueError("closed-form values carry no error estimate")
        object.__setattr__(self, "error_estimate", err)


def _normalize_method(method: str) -> str:
    try:
        return _METHOD_ALIASES[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(set(_METHOD_ALIASES))}"
        ) from None


# ---------------------------------------------------------------------------
# Quadrature forms
#
# Both integrands are a weight times a profile factor, taken a GK15 panel
# at a time through numerics.integrate_panels:
#
#     H:  n y^(n-1)            x  ln I(y)
#     J:  -(n^2/2) t^(2n-2)    x  I(t)
#
# The profile factors depend only on the member and the weights only on n,
# so each is computed once per panel in a bounded cache keyed on the panel's
# node tuple, and H, J and every n of one member share them: one profile
# table holds I and ln I together.  The profile comes from the family
# record, called on nodes integrate_panels has already checked to lie in
# (0, 1); float() keeps the arithmetic on Python floats, as the public
# density_quantile does.  Each value is the same product of the same floats
# as the point integrand on the public API, so both give the same bits.  A
# factor that raises leaves no cache entry.
#
# The tables are sized to their working sets on the paper's grid (catalog x
# TABLE_N, member-major, as tables and verify run it): one member touches at
# most 59 distinct panels, and the whole grid 418 distinct (n, measure,
# panel) weights.  The profile table does not hold the catalog's 1544.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _profile(dist, ts: tuple) -> tuple[tuple, tuple]:
    """(I(t), ln I(t)) at each node of one panel; an I that underflowed to 0
    has ln I = -inf, so an H panel fails as non-finite instead of in
    math.log."""
    profile = dist_mod.REGISTRY[dist.family].density_quantile
    values = tuple(map(float, map(profile, repeat(dist), ts)))
    try:  # map keeps math.log in C on the common path
        return values, tuple(map(math.log, values))
    except ValueError:
        return values, tuple(math.log(i) if i else -math.inf for i in values)


@functools.lru_cache(maxsize=512)
def _weight(n: int, measure: str, ts: tuple) -> tuple:
    """At each node of one panel, n y^(n-1) for H or -(n^2/2) t^(2n-2) for J."""
    if measure == "H":
        factor, power = n, n - 1
    else:
        factor, power = -(0.5 * n * n), 2 * n - 2
    return tuple(map(operator.mul, repeat(factor), map(pow, ts, repeat(power))))


def _shannon_quad(dist, n: int, tol: float) -> MeasureValue:
    def integrand(ys: tuple):
        return map(operator.mul, _weight(n, "H", ys), _profile(dist, ys)[1])

    q = numerics.integrate_panels(integrand, abs_tol=tol)
    value = 1.0 - math.log(n) - 1.0 / n - q.value
    return MeasureValue(value, "quadrature", q.error_estimate)


def _extropy_quad(dist, n: int, tol: float) -> MeasureValue:
    def integrand(ts: tuple):
        return map(operator.mul, _weight(n, "J", ts), _profile(dist, ts)[0])

    q = numerics.integrate_panels(integrand, abs_tol=tol)
    return MeasureValue(q.value, "quadrature", q.error_estimate)


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
    seed: int = 0,
) -> MeasureValue:
    """Shannon entropy H of the maximum of n i.i.d. draws from ``dist``.

    ``method`` selects the route: ``closed_form`` (exact per-family
    expression), ``quadrature`` (the density-quantile integral), or
    ``monte_carlo`` (plug-in estimate; ``samples`` and ``seed`` apply).
    The CLI short names closed/quad/mc are accepted as aliases.
    """
    n = _check_index(n, "shannon_max")
    method = _normalize_method(method)
    if method == "closed_form":
        return MeasureValue(dist_mod.REGISTRY[dist.family].shannon(dist, n), "closed_form")
    if method == "quadrature":
        return _shannon_quad(dist, n, quad_tol)
    est = numerics.mc_entropy_max(dist, n, samples=samples, seed=seed)
    return MeasureValue(est.estimate, "monte_carlo", est.std_error)


def extropy_max(
    dist,
    n: int,
    method: str = "closed_form",
    *,
    quad_tol: float = DEFAULT_QUAD_TOL,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> MeasureValue:
    """Extropy J of the maximum of n i.i.d. draws from ``dist``.

    Same routes as :func:`shannon_max`.  For the gev family the closed form
    requires xi > -2; below that the measure is -inf and a domain error is
    raised instead of evaluating an invalid expression.
    """
    n = _check_index(n, "extropy_max")
    method = _normalize_method(method)
    if method == "closed_form":
        return MeasureValue(dist_mod.REGISTRY[dist.family].extropy(dist, n), "closed_form")
    if method == "quadrature":
        return _extropy_quad(dist, n, quad_tol)
    est = numerics.mc_extropy_max(dist, n, samples=samples, seed=seed)
    return MeasureValue(est.estimate, "monte_carlo", est.std_error)


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


def shannon_normalized(
    dist,
    n: int,
    method: str = "closed_form",
    *,
    norming=None,
    quad_tol: float = DEFAULT_QUAD_TOL,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> MeasureValue:
    """Entropy of the normalized maximum (X_(n) - b_n)/a_n.

    Equal to -ln a_n + H(X_(n)); the centering b_n never enters.  ``norming``
    overrides the catalog's norming constants (only its ``a_n`` matters).
    """
    if norming is None:
        norming = evt.norming_constants(dist, n)
    base = shannon_max(dist, n, method, quad_tol=quad_tol, samples=samples, seed=seed)
    return MeasureValue(base.value - math.log(norming.a_n), base.method, base.error_estimate)


def extropy_normalized(
    dist,
    n: int,
    method: str = "closed_form",
    *,
    norming=None,
    quad_tol: float = DEFAULT_QUAD_TOL,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> MeasureValue:
    """Extropy of the normalized maximum (X_(n) - b_n)/a_n.

    Equal to a_n * J(X_(n)); the centering b_n never enters.
    """
    if norming is None:
        norming = evt.norming_constants(dist, n)
    base = extropy_max(dist, n, method, quad_tol=quad_tol, samples=samples, seed=seed)
    return MeasureValue(
        norming.a_n * base.value, base.method, norming.a_n * base.error_estimate
    )


def crosscheck(dist, n: int, *, quad_tol: float = DEFAULT_QUAD_TOL) -> dict:
    """Closed form vs quadrature for both measures, with absolute gaps.

    Returns a dict with keys h_closed, h_quad, h_gap, j_closed, j_quad,
    j_gap.  Used by the table reproduction command and the verification
    suite.
    """
    h_closed = shannon_max(dist, n, "closed_form").value
    h_quad = shannon_max(dist, n, "quadrature", quad_tol=quad_tol).value
    j_closed = extropy_max(dist, n, "closed_form").value
    j_quad = extropy_max(dist, n, "quadrature", quad_tol=quad_tol).value
    return {
        "h_closed": h_closed,
        "h_quad": h_quad,
        "h_gap": abs(h_closed - h_quad),
        "j_closed": j_closed,
        "j_quad": j_quad,
        "j_gap": abs(j_closed - j_quad),
    }
