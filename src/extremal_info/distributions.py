"""Parent distribution catalog and the family registry.

Six families, each with a closed-form quantile function, so maxima can be
sampled exactly and the density-quantile profile I(t) = f(F^{-1}(t)) is
available analytically:

======================  =======================  ==========================
family                  parameters               density on its support
======================  =======================  ==========================
uniform                 theta > 0                1/theta on (0, theta)
exponential             theta > 0                theta e^{-theta x}, x > 0
logistic                theta > 0                theta e^{-theta x} / (1 + e^{-theta x})^2
pareto                  theta > 0, nu > 0        nu theta^nu / x^{nu+1}, x >= theta
power_function          theta > 0, nu > 0        nu theta^nu x^{nu-1} on (0, 1/theta)
gev                     xi real                  (1 + xi x)^{-(xi+1)/xi} e^{-(1+xi x)^{-1/xi}}
======================  =======================  ==========================

The gev family is the generalized extreme-value law with unit location and
scale; xi = 0 denotes the Gumbel member exp(-(x + e^{-x})), and a |xi|
among the subnormals (below ``GUMBEL_XI_EPS``), where xi x loses its bits,
is evaluated through the Gumbel branch.  Specs are immutable and
validated on construction: theta, nu and xi must be real numbers (bool
and str are rejected), and the JSON constructor rejects unknown fields
outright.

Every per-family fact lives in one record of :data:`REGISTRY`: the
family's fields, its distribution functions, the closed-form entropy and
extropy of the sample maximum with their n -> infinity limits, and its
extreme-value index with norming constants.  Facts that follow from these
are derived, not restated: the support is the quantile at t = 0 and 1,
:mod:`~extremal_info.evt` names the domain of attraction from the index,
and :mod:`~extremal_info.canonical` builds its grids from each record's
fields.  The public functions here, in :mod:`~extremal_info.measures` and
in :mod:`~extremal_info.evt` look the record up by family name.
"""

from __future__ import annotations

import decimal
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import special
from .special import EULER_GAMMA, _check_real, _math

__all__ = [
    "FAMILIES",
    "REGISTRY",
    "Family",
    "Indeterminate",
    "INDETERMINATE",
    "DistributionSpec",
    "uniform",
    "exponential",
    "logistic",
    "pareto",
    "power_function",
    "gev",
    "from_dict",
    "to_dict",
    "pdf",
    "log_pdf",
    "cdf",
    "quantile",
    "density_quantile",
    "sup_density",
    "is_log_concave",
]

# Below this magnitude, the subnormals, xi x loses its bits and the xi = 0
# formulas are used; above it every gev formula, written with log1p and
# expm1, keeps its own.
GUMBEL_XI_EPS = sys.float_info.min


class Indeterminate:
    """Marker for an extended-real value of unresolved indeterminate form.

    A single instance, :data:`INDETERMINATE`, stands for limits that the
    defining expressions leave as 0 x (-inf); it deliberately does not
    compare or coerce like a number.
    """

    _INSTANCE = None

    def __new__(cls):
        if cls._INSTANCE is None:
            cls._INSTANCE = super().__new__(cls)
        return cls._INSTANCE

    def __repr__(self) -> str:
        return "indeterminate"


INDETERMINATE = Indeterminate()


# ---------------------------------------------------------------------------
# Family registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """Every per-family fact of one catalog family.

    ``fields`` names the spec fields the family takes, in label order.
    Every other member is a function of a validated spec ``d``:

    - ``log_pdf(d, x)``, ``cdf(d, x)``, ``quantile(d, t)`` and
      ``density_quantile(d, t)``: the public functions hand the record a
      Python float for a scalar call and a float ndarray otherwise, after
      checking that t lies in (0, 1), so a record function must accept
      both; it may return a float, a numpy scalar or an array;
    - ``quantile`` must also accept t = 0 and t = 1, where it gives the
      ends of the support (:attr:`DistributionSpec.support`);
    - ``log_density_quantile(d, log_t, log1m_t)``: ln I(t) from ln t, in
      (-inf, 0), and ln(1 - t), in (-inf, 0] (0 where 1 - t rounds to 1),
      float arrays of one shape, as an array of that shape; it reads
      ``log1m_t`` only where ``reads_log1m_t`` is true, and is handed None
      otherwise.  Where a constant such as nu/theta or an exponent such as
      (nu + 1)/nu leaves the double range, it is taken term by term, so
      ln I is finite wherever it is a double, also where I under- or
      overflows; beyond the doubles it is +-inf, with numpy's overflow
      warning, which the caller must expect;
    - ``sup_density(d)`` and ``is_log_concave(d)``;
    - ``shannon(d, n)`` and ``extropy(d, n)``: closed-form H and J of the
      maximum of n draws; ``limits(d)``: their n -> infinity limits
      (H, J) as extended reals.  H past the double range raises an
      ``OverflowError`` that names it.  Every ``extropy`` is built by
      :func:`_closed_extropy` from the family's direct form and ln|J|, so
      J is a double wherever it is one, -inf only where the integral
      diverges, and past the doubles a named ``OverflowError``;
    - ``evi(d)``: extreme-value index xi, whose sign fixes the domain of
      attraction;
    - ``norming(d, n)``: norming constants (a_n, b_n) to the standard GEV(xi).

    ``shannon``, ``extropy`` and ``norming`` take a Python int n, or an
    integer array as :func:`~extremal_info.special._check_n_grid` builds it
    (int64 while n * n fits, else Python ints), and give an array the bits
    of the scalar calls, or raise what the scalar call at some element
    raises.  A constant of the pair may stay a scalar.  Their array
    arithmetic is numpy's, which warns where Python floats overflow
    silently; callers that want the floats' silence use ``np.errstate``
    (``extropy`` replaces such elements and warns of none).
    """

    fields: tuple[str, ...]
    log_pdf: Callable
    cdf: Callable
    quantile: Callable
    density_quantile: Callable
    log_density_quantile: Callable
    reads_log1m_t: bool
    sup_density: Callable
    is_log_concave: Callable
    shannon: Callable
    extropy: Callable
    limits: Callable
    evi: Callable
    norming: Callable


def _logistic_cdf(d, x):
    z = d.theta * x
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _exponential_limits(d):
    # (H, J) limits of the exponential and the logistic family, both of rate theta
    return (1.0 - math.log(d.theta) + EULER_GAMMA, -d.theta / 8.0)


def _rate_extropy(k: int):
    """J = -n theta/(4 (2n + k)) of the exponential (k = -1) and the
    logistic (k = 1) family of rate theta."""
    return _closed_extropy(
        lambda d, n: (-(num := n * d.theta) / (4.0 * (2.0 * n + k)), num),
        lambda d, n: Decimal(n).ln() + Decimal(d.theta).ln() - (8 * Decimal(n) + 4 * k).ln(),
    )


def _logistic_norming(d, n):
    """Generic Gumbel-domain constants a_n = h(U(n)), b_n = U(n).

    h(u) = (1 - F(u))/f(u) is evaluated in log space so that far-tail
    density underflow cannot poison the ratio.  The logistic record's own
    quantile, cdf and log_pdf are called on Python floats, with the public
    functions' float() conversion, or on a float array.  The constants are
    undefined where 1 - 1/n is 0 (n = 1) or rounds to 1 (from about
    n = 2^54 on), and the message names the first such n.
    """
    m = _math(type(n))
    t = m.float(1.0 - 1 / n)  # int / int past the doubles, the same bits below 2^53
    inside = (t > 0.0) & (t < 1.0)
    if not m.all(inside):
        first = np.ravel(n)[~np.ravel(inside)][0]
        raise ValueError(
            f"norming constants for the logistic family are undefined at n={first} "
            "(1 - 1/n must round to a level strictly inside (0, 1))"
        )
    record = REGISTRY["logistic"]
    u = m.float(record.quantile(d, t))
    log_tail = m.log1p(-m.float(record.cdf(d, u)))
    return (m.exp(log_tail - m.float(record.log_pdf(d, u))), u)


def _pareto_log_pdf(d, x):
    th, nu = d.theta, d.nu
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = math.log(nu) + nu * math.log(th) - (nu + 1.0) * np.log(x)
    return np.where(x >= th, inside, -np.inf)


def _pareto_cdf(d, x):
    th = d.theta
    # tail overflows for x far below the support; those lanes are masked.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tail = np.exp(d.nu * (math.log(th) - np.log(np.where(x > 0, x, 1.0))))
    return np.where(x > th, 1.0 - tail, 0.0)


def _closed_extropy(direct, log_abs, digits=lambda d, n: 40):
    """A record's closed J, a double wherever J is one.

    ``direct(d, n)`` gives J in doubles and the positive factor it is built
    from, and J is kept where -J and that factor are normal doubles.
    Everywhere else, also where ``direct`` raises ``OverflowError`` or
    ``ZeroDivisionError``, J is -e^L from L = ``log_abs(d, n)`` = ln|J|,
    taken in decimal at ``digits(d, n)`` digits: a double, -0.0 below the
    subnormals, -inf where L is +inf (a divergent integral), and beyond the
    doubles an ``OverflowError`` that names the member and n.  An integer
    array keeps the direct form on the whole array where it passes, and
    every other element, also of an object array, takes its scalar call.
    """

    def exact(d, n) -> float:
        with decimal.localcontext() as ctx:
            ctx.prec = digits(d, n)
            log_j = log_abs(d, n)
            if log_j < -800:
                return -0.0
            if log_j < 710 and (j := float(log_j.exp())) < math.inf:
                return -j
            if log_j.is_infinite():
                return -math.inf
            raise OverflowError(
                f"extropy of the maximum of n={n} draws from {d._label} is -e^{log_j:.6g}, beyond the double range"
            )

    tiny, inf = sys.float_info.min, math.inf  # closure cells: the scalar path is hot

    def extropy(d, n):
        if type(n) is not int:  # an integer array, as the record contract has it
            return on_array(d, n)
        try:
            j, part = direct(d, n)
        except (OverflowError, ZeroDivisionError):
            return exact(d, n)
        if tiny <= part < inf and tiny <= -j < inf:
            return j
        return exact(d, n)

    def on_array(d, n):
        if n.dtype.kind in "iu":
            try:
                with np.errstate(all="ignore"):  # the elements it leaves are replaced
                    j, part = direct(d, n)
            except (OverflowError, ZeroDivisionError):
                pass
            else:
                off = ~((-j >= tiny) & (-j < inf) & (part >= tiny) & (part < inf))
                if off.any():
                    j[off] = [extropy(d, m) for m in n[off].tolist()]
                return j
        return np.fromiter((extropy(d, m) for m in n.ravel().tolist()), float, n.size).reshape(n.shape)

    return extropy


def _log_of(value: float, log_value) -> float:
    """ln ``value``, or ``log_value()``, its logarithm taken term by term,
    where ``value`` is 0, subnormal or inf and ln ``value`` would be wrong."""
    return math.log(value) if sys.float_info.min <= value < math.inf else log_value()


def _entropy_in_range(shannon):
    """A closed H that names an overflow.  Each of its terms that can
    overflow has the sign of the sum's excess, so where the arithmetic gives
    +-inf, H itself lies beyond the double range, and an ``OverflowError``
    names the member and the n (an array's first such n)."""

    def entropy(d, n):
        value = shannon(d, n)
        if isinstance(n, np.ndarray):
            # a grid past int64 gives an object array
            beyond = np.isinf(np.asarray(value, dtype=float))
            if not beyond.any():
                return value
            first = np.argmax(beyond)
            n, value = n.ravel()[first], value.ravel()[first]
        elif not math.isinf(value):
            return value
        bound = f"below -{sys.float_info.max:.6g}" if value < 0 else f"above {sys.float_info.max:.6g}"
        raise OverflowError(
            f"entropy of the maximum of n={n} draws from {d.label()} is {bound}, beyond the double range"
        )

    return entropy


@_entropy_in_range
def _pareto_shannon(d, n):
    nu, ln_n = d.nu, _math(type(n)).log(n)
    return (
        1.0
        + ln_n / nu
        - 1 / n
        - _log_of(nu / d.theta, lambda: math.log(nu) - math.log(d.theta))
        + ((nu + 1.0) / nu) * (special.harmonic(n) - ln_n)
    )


def _ratio_times(num: float, nu: float, x):
    """(num/nu) x for num = nu +- 1, also where num/nu overflows (nu below
    about 5.6e-309): there num rounds to +-1, and x/(num nu) misses the
    product by |x|, far below its rounding."""
    k = num / nu
    return k * x if abs(k) < math.inf else x / (num * nu)


def _pareto_log_density_quantile(d, log_t, log1m_t):
    nu = d.nu
    log_c = _log_of(nu / d.theta, lambda: math.log(nu) - math.log(d.theta))
    return log_c + _ratio_times(nu + 1.0, nu, log1m_t)


def _pareto_direct(d, n):
    beta = special.beta_function(2 * n - 1, (2.0 * d.nu + 1.0) / d.nu)
    return -(d.nu * n * n / (2.0 * d.theta)) * beta, beta


def _pareto_log_abs(d, n) -> Decimal:
    """ln|J| = ln nu + 2 ln n - ln 2 - ln theta + ln B(2n - 1, 2 + 1/nu)."""
    a, b = Decimal(2 * n - 1), 2 + 1 / Decimal(d.nu)
    ln_beta = _ln_gamma(a) + _ln_gamma(b) - _ln_gamma(a + b)
    return Decimal(d.nu).ln() + 2 * Decimal(n).ln() - Decimal(2).ln() - Decimal(d.theta).ln() + ln_beta


def _pareto_digits(d, n) -> int:
    """25 digits past the size of ln Gamma(2n + 1/nu)."""
    return 35 + math.ceil(max(math.log10(2 * n + 2), -math.log10(d.nu)))


def _pareto_norming(d, n):
    # b_n = U(n) = theta n^{1/nu} and a_n = xi U(n), with xi = 1/nu
    m, p = _math(type(n)), 1.0 / d.nu
    if type(n) is int and n > special._DOUBLE_MAX_INT:
        u = _past_power(n, p, d.theta)[0]
    else:
        u = d.theta * m.pow(m.float(n), p)
    return (u / d.nu, u)


def _power_log_pdf(d, x):
    th, nu = d.theta, d.nu
    with np.errstate(divide="ignore", invalid="ignore"):
        term = (nu - 1.0) * np.log(x)
    if nu == 1.0:
        term = np.where(x == 0.0, 0.0, term)
    inside = math.log(nu) + nu * math.log(th) + term
    return np.where((x >= 0.0) & (x <= 1.0 / th), inside, -np.inf)


# power_function is the one family that applies ``**`` to t itself.  On a
# Python float that is libm pow, on an array numpy's SIMD power loop, and
# the two differ in the last bit for a few percent of inputs; np.asarray
# keeps scalar calls on the array loop so they match array calls bit for bit
# (and overflow to inf instead of raising OverflowError).
def _power_quantile(d, t):
    return np.asarray(t) ** (1.0 / d.nu) / d.theta


def _power_density_quantile(d, t):
    if d.nu < 1.0:
        # Only here is the exponent negative, so t -> 0 overflows to inf (the
        # true value), and where nu theta underflows to 0 the profile is
        # 0 x inf, nan; errstate is kept off the catalog's hot path (~1 us).
        with np.errstate(over="ignore", invalid="ignore"):
            return d.nu * d.theta * np.asarray(t) ** ((d.nu - 1.0) / d.nu)
    return d.nu * d.theta * np.asarray(t) ** ((d.nu - 1.0) / d.nu)


def _power_log_density_quantile(d, log_t, log1m_t):
    nu = d.nu
    log_c = _log_of(nu * d.theta, lambda: math.log(nu) + math.log(d.theta))
    return log_c + _ratio_times(nu - 1.0, nu, log_t)


def _power_direct(d, n):
    num = n * n * d.nu * d.nu * d.theta
    return -num / (2.0 * _twice_less_one(n, d.nu)), num


def _reciprocal(x: float, n):
    """1/(x n) for a double x > 0 and an integer n, or an integer array of
    them; an n past the doubles is taken exactly and the quotient rounded."""
    if type(n) is int and n > special._DOUBLE_MAX_INT:
        return float(1 / (Fraction(x) * n))
    return 1.0 / (x * n)


def _quotient(x: float, n):
    """x/n for a double x and an integer n, or an integer array of them; an
    n past the doubles is taken exactly and the quotient rounded."""
    if type(n) is int and n > special._DOUBLE_MAX_INT:
        return float(Fraction(x) / n)
    return x / n


def _past_power(n: int, p: float, scale: float = 1.0) -> tuple[float, float]:
    """(scale n^p, expm1(p ln n)/p) for an integer n past the doubles, a
    double p != 0 and a positive double scale.  p ln n is taken at 40
    digits, as its double would carry an error of |p ln n| ulps into both,
    and the product with the scale in decimal, so that n^p past the
    doubles does not hide a product within them: expm1 by libm where
    |p ln n| <= 1, which does not amplify the rounding of p ln n there,
    else in decimal, where exp - 1 cancels no digit that matters.  A value
    beyond the doubles is inf, and one below them 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        # e^+-2000 times any scale lies past the doubles, and within the
        # context's exponents
        log = max(min(Decimal(n).ln() * Decimal(p), 2000), -2000)
        power = log.exp()
        expm1 = math.expm1(float(log)) / p if abs(log) <= 1 else float((power - 1) / Decimal(p))
        return float(Decimal(scale) * power), expm1


def _twice_less_one(n, nu):
    """2 n nu - 1 for an integer n, or an integer array of them.  Where the
    double 2 n nu is below 2, the subtraction cancels the bits the product
    rounded off, so 2 n nu - 1 is taken exactly there and rounded once."""
    twice = 2.0 * n * nu
    if type(n) is int:
        return float(2 * n * Fraction(nu) - 1) if twice < 2.0 else twice - 1.0
    out = twice - 1.0
    near = twice < 2.0
    if near.any():
        out[near] = [float(2 * m * Fraction(nu) - 1) for m in n[near].tolist()]
    return out


def _power_log_abs(d, n) -> Decimal:
    """ln|J| = 2 ln(n nu) + ln theta - ln 2 - ln(2 n nu - 1), or +inf where
    2 n nu <= 1: the defining integral of f^2 diverges at the lower endpoint."""
    x = Decimal(n) * Decimal(d.nu)
    if 2 * x <= 1:
        return Decimal("Infinity")
    return 2 * x.ln() + Decimal(d.theta).ln() - Decimal(2).ln() - (2 * x - 1).ln()


def _power_norming(d, n):
    # a_n = (1 - (1 - 1/n)^{1/nu})/theta = x* - U(n), b_n = U(n); at n = 1,
    # a_n = 1/theta and log1p(-1) fails, so n = 1 evaluates the formula at
    # n = 2 and takes 1 in its place.  Past the doubles ln(1 - 1/n)/nu is
    # -1/(nu n) to its last bit, taken exactly.
    m = _math(type(n))
    if type(n) is int and n > special._DOUBLE_MAX_INT:
        a_n = -math.expm1(-_reciprocal(d.nu, n))
    else:
        first = n == 1
        a_n = m.where(first, 1.0, -m.expm1(m.log1p(-1.0 / (n + first)) / d.nu))
    return (a_n / d.theta, (1.0 - a_n) / d.theta)


def _gev_xi(d) -> float:
    """The effective gev shape: 0.0 inside the Gumbel window of the
    subnormals, |xi| < ``GUMBEL_XI_EPS``.

    Every gev fact reads the shape through this function, once per call.
    """
    return 0.0 if abs(d.xi) < GUMBEL_XI_EPS else d.xi


def _gev_log_pdf(d, x):
    xi = _gev_xi(d)
    if xi == 0.0:
        with np.errstate(over="ignore"):
            return -x - np.exp(-x)
    inside = xi * x > -1.0  # 1 + xi x > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_z = np.log1p(np.where(inside, xi * x, 0.0))
        return np.where(inside, -(1.0 + 1.0 / xi) * log_z - np.exp(-log_z / xi), -np.inf)


def _gev_cdf(d, x):
    xi = _gev_xi(d)
    if xi == 0.0:
        with np.errstate(over="ignore"):
            return np.exp(-np.exp(-x))
    inside = xi * x > -1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        body = np.exp(-np.exp(-np.log1p(np.where(inside, xi * x, 0.0)) / xi))
    return np.where(inside, body, np.where(x <= 0.0, 0.0, 1.0))


def _gev_quantile(d, t):
    xi = _gev_xi(d)
    neg_log = -np.log(t)  # -ln t, in (0, inf)
    return -np.log(neg_log) if xi == 0.0 else np.expm1(-xi * np.log(neg_log)) / xi


# Above this exponent k, (-ln t)^k can overflow for a double t in (0, 1):
# -ln t peaks at ~744.4, at the smallest subnormal t.
_GEV_K_FINITE = math.log(sys.float_info.max) / math.log(
    -math.log(sys.float_info.min * sys.float_info.epsilon)
)


def _gev_density_quantile(d, t):
    k = _gev_xi(d) + 1.0
    if k < 0.0 or k > _GEV_K_FINITE:
        # Only here can the power overflow to inf: as t -> 1 for a negative
        # exponent, as t -> 0 for a large one; errstate stays off the hot
        # path, as for power_function.
        with np.errstate(over="ignore"):
            return t * (-np.log(t)) ** k
    return t * (-np.log(t)) ** k


def _gev_log_density_quantile(d, log_t, log1m_t):
    return log_t + (_gev_xi(d) + 1.0) * np.log(-log_t)


def _gev_sup_density(d):
    xi = _gev_xi(d)
    if xi < -1.0:
        return math.inf
    if xi == -1.0:
        return 1.0
    k = xi + 1.0
    try:
        return math.exp(k * math.log(k) - k)
    except OverflowError:
        raise OverflowError(
            f"sup density of {d._label} is e^{k * math.log(k) - k:.6g}, beyond the double range"
        ) from None


def _gev_shannon(d, n):
    xi = _gev_xi(d)
    return 1.0 + EULER_GAMMA + xi * EULER_GAMMA + xi * _math(type(n)).log(n)


# ln(2 pi) to 66 digits, and Stirling's series for ln Gamma(z): its
# coefficients B_2k / (2k (2k - 1)) as (numerator, denominator)
_LN_2PI = Decimal("1.837877066409345483560659472811235279722794947275566825634303080965")
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360))


def _ln_gamma(z: Decimal) -> Decimal:
    """ln Gamma(z) for z > 0 at the context's precision: Stirling's series
    from z = 20 on (its first omitted term is below 1e-19 there), the
    recurrence Gamma(z + 1) = z Gamma(z) below."""
    shift = Decimal(1)
    while z < 20:
        shift *= z
        z += 1
    series = sum(Decimal(p) / (q * z ** (2 * i + 1)) for i, (p, q) in enumerate(_STIRLING))
    return (z - Decimal("0.5")) * z.ln() - z + _LN_2PI / 2 + series - shift.ln()


def _gev_direct(d, n):
    xi, m = _gev_xi(d), _math(type(n))
    if xi <= -2.0:
        raise ValueError(
            f"extropy of the maximum is -inf for gev with xi <= -2 (got xi={d.xi}); "
            "the closed form is valid only for xi > -2"
        )
    # -Gamma(xi + 2)/(2^(xi+3) n^xi), n^xi by libm
    den = 2.0 ** (xi + 3.0) * m.pow(m.float(n), xi)
    return -math.gamma(xi + 2.0) / den, den


def _gev_log_abs(d, n) -> Decimal:
    x = Decimal(_gev_xi(d))
    return _ln_gamma(x + 2) - (x + 3) * Decimal(2).ln() - x * Decimal(n).ln()


def _gev_digits(d, n) -> int:
    """25 digits past the size of the largest term of ln|J|."""
    xi = _gev_xi(d)
    return 25 + math.ceil(math.log10(xi + 3.0) + math.log10(math.log(xi + 3.0) + math.log(n) + 1.0))


def _gev_limits(d):
    # (H, J) limits of a gev member: H moves with xi ln n and J with n^-xi
    xi = _gev_xi(d)
    if xi == 0.0:
        return (1.0 + EULER_GAMMA, -0.125)
    return (math.inf, -0.0) if xi > 0.0 else (-math.inf, -math.inf)


def _gev_norming(d, n):
    # exact max-stable constants
    xi, m = _gev_xi(d), _math(type(n))
    if xi == 0.0:
        return (1.0, m.log(n))
    if type(n) is int and n > special._DOUBLE_MAX_INT:
        return _past_power(n, xi)
    return (m.pow(m.float(n), xi), m.expm1(xi * m.log(n)) / xi)


REGISTRY: dict[str, Family] = {
    "uniform": Family(
        fields=("theta",),
        log_pdf=lambda d, x: np.where((x >= 0.0) & (x <= d.theta), -math.log(d.theta), -np.inf),
        cdf=lambda d, x: np.clip(x / d.theta, 0.0, 1.0),
        quantile=lambda d, t: d.theta * t,
        # 0 t keeps the type and shape of t at a tenth of np.full_like's cost
        density_quantile=lambda d, t: 1.0 / d.theta + 0.0 * t,
        log_density_quantile=lambda d, log_t, log1m_t: -math.log(d.theta) + 0.0 * log_t,
        reads_log1m_t=False,
        sup_density=lambda d: 1.0 / d.theta,
        is_log_concave=lambda d: True,
        shannon=lambda d, n: 1.0 - _math(type(n)).log(n) - 1 / n + math.log(d.theta),
        extropy=_closed_extropy(
            lambda d, n: (-(n * n) / (den := 2.0 * (2.0 * n - 1.0) * d.theta), den),
            lambda d, n: 2 * Decimal(n).ln() - Decimal(2).ln() - (2 * Decimal(n) - 1).ln() - Decimal(d.theta).ln(),
        ),
        limits=lambda d: (-math.inf, -math.inf),
        # the density stays positive and finite at the right endpoint
        evi=lambda d: -1.0,
        norming=lambda d, n: (a := _quotient(d.theta, n), d.theta - a),
    ),
    "exponential": Family(
        fields=("theta",),
        log_pdf=lambda d, x: np.where(x >= 0.0, math.log(d.theta) - d.theta * x, -np.inf),
        cdf=lambda d, x: np.where(x > 0.0, -np.expm1(-d.theta * x), 0.0),
        quantile=lambda d, t: -np.log1p(-t) / d.theta,
        density_quantile=lambda d, t: d.theta * (1.0 - t),
        log_density_quantile=lambda d, log_t, log1m_t: math.log(d.theta) + log1m_t,
        reads_log1m_t=True,
        sup_density=lambda d: d.theta,
        is_log_concave=lambda d: True,
        shannon=lambda d, n: (
            1.0 - _math(type(n)).log(n) - 1 / n - math.log(d.theta) + special.harmonic(n)
        ),
        extropy=_rate_extropy(-1),
        limits=_exponential_limits,
        evi=lambda d: 0.0,
        norming=lambda d, n: (1.0 / d.theta, _math(type(n)).log(n) / d.theta),
    ),
    "logistic": Family(
        fields=("theta",),
        log_pdf=lambda d, x: (
            math.log(d.theta) - d.theta * x - 2.0 * np.logaddexp(0.0, -d.theta * x)
        ),
        cdf=_logistic_cdf,
        quantile=lambda d, t: (np.log(t) - np.log1p(-t)) / d.theta,
        density_quantile=lambda d, t: d.theta * t * (1.0 - t),
        log_density_quantile=lambda d, log_t, log1m_t: math.log(d.theta) + log_t + log1m_t,
        reads_log1m_t=True,
        sup_density=lambda d: d.theta / 4.0,
        is_log_concave=lambda d: True,
        shannon=lambda d, n: 1.0 - _math(type(n)).log(n) - math.log(d.theta) + special.harmonic(n),
        extropy=_rate_extropy(1),
        limits=_exponential_limits,
        evi=lambda d: 0.0,
        norming=_logistic_norming,
    ),
    "pareto": Family(
        fields=("theta", "nu"),
        log_pdf=_pareto_log_pdf,
        cdf=_pareto_cdf,
        quantile=lambda d, t: d.theta * np.exp(-np.log1p(-t) / d.nu),
        density_quantile=lambda d, t: (d.nu / d.theta) * (1.0 - t) ** ((d.nu + 1.0) / d.nu),
        log_density_quantile=_pareto_log_density_quantile,
        reads_log1m_t=True,
        sup_density=lambda d: d.nu / d.theta,
        is_log_concave=lambda d: False,
        shannon=_pareto_shannon,
        extropy=_closed_extropy(_pareto_direct, _pareto_log_abs, _pareto_digits),
        # the defining product of the J limit is of the form 0 x (-inf)
        limits=lambda d: (math.inf, INDETERMINATE),
        evi=lambda d: 1.0 / d.nu,
        norming=_pareto_norming,
    ),
    "power_function": Family(
        fields=("theta", "nu"),
        log_pdf=_power_log_pdf,
        cdf=lambda d, x: np.clip(
            np.where(x > 0.0, (d.theta * np.clip(x, 0.0, 1.0 / d.theta)) ** d.nu, 0.0), 0.0, 1.0
        ),
        quantile=_power_quantile,
        density_quantile=_power_density_quantile,
        log_density_quantile=_power_log_density_quantile,
        reads_log1m_t=False,
        sup_density=lambda d: d.nu * d.theta if d.nu >= 1.0 else math.inf,
        is_log_concave=lambda d: d.nu >= 1.0,
        shannon=_entropy_in_range(
            lambda d, n: 1.0
            - _math(type(n)).log(n)
            - _log_of(d.nu * d.theta, lambda: math.log(d.nu) + math.log(d.theta))
            - _reciprocal(d.nu, n)
        ),
        extropy=_closed_extropy(_power_direct, _power_log_abs),
        limits=lambda d: (-math.inf, -math.inf),
        # the density stays positive and finite at the right endpoint, for any nu
        evi=lambda d: -1.0,
        norming=_power_norming,
    ),
    "gev": Family(
        fields=("xi",),
        log_pdf=_gev_log_pdf,
        cdf=_gev_cdf,
        quantile=_gev_quantile,
        density_quantile=_gev_density_quantile,
        log_density_quantile=_gev_log_density_quantile,
        reads_log1m_t=False,
        sup_density=_gev_sup_density,
        is_log_concave=lambda d: -1.0 < _gev_xi(d) <= 0.0,
        shannon=_entropy_in_range(_gev_shannon),
        extropy=_closed_extropy(_gev_direct, _gev_log_abs, _gev_digits),
        limits=_gev_limits,
        # max-stable, hence in its own domain
        evi=_gev_xi,
        norming=_gev_norming,
    ),
}

FAMILIES = tuple(REGISTRY)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable, validated description of one catalog member."""

    family: str
    theta: float = 1.0
    nu: float | None = None
    xi: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        fields = REGISTRY[self.family].fields
        object.__setattr__(self, "theta", _check_real(self.theta, "theta"))
        if "theta" not in fields and self.theta != 1.0:
            raise ValueError(f"{self.family} does not take theta; it is fixed at 1")
        for name in ("nu", "xi"):
            value = getattr(self, name)
            if name not in fields:
                if value is not None:
                    raise ValueError(f"{self.family} does not take a shape parameter {name}")
            elif value is None:
                raise ValueError(f"{self.family} requires a shape parameter {name}")
            else:
                object.__setattr__(self, name, _check_real(value, name, positive=name == "nu"))

    @property
    def support(self) -> tuple[float, float]:
        """Open interval carrying the distribution's mass: (Q(0), Q(1))."""
        q = REGISTRY[self.family].quantile
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return (float(q(self, 0.0)), float(q(self, 1.0)))

    def label(self) -> str:
        """Short human-readable tag, e.g. 'pareto(theta=1, nu=2)'."""
        parts = [f"{k}={getattr(self, k):g}" for k in REGISTRY[self.family].fields]
        return f"{self.family}({', '.join(parts)})"

    # Member facts bounds and evt read on every call, each taken from the
    # record when a call first needs it and kept in the instance __dict__
    # (not read by ==, hash or repr); one whose record call raises is not.

    @cached_property
    def _label(self) -> str:
        return self.label()

    @cached_property
    def _i_half(self) -> float:  # the bits of the public scalar call
        return float(REGISTRY[self.family].density_quantile(self, 0.5))

    @cached_property
    def _log_concave(self) -> bool:
        return REGISTRY[self.family].is_log_concave(self)

    @cached_property
    def _sup_density_above_1(self) -> str:
        """sup f as a note shows it where it exceeds 1, else ""."""
        try:
            sup = REGISTRY[self.family].sup_density(self)
        except OverflowError:
            return "beyond the double range"
        return f"{sup:g}" if sup > 1.0 else ""

    @cached_property
    def _xi(self) -> float:  # checked finite, as evt's domain rule checks it
        xi = REGISTRY[self.family].evi(self)
        _check_real(xi, "xi", positive=False)
        return xi


def uniform(theta: float = 1.0) -> DistributionSpec:
    """Uniform distribution on (0, theta)."""
    return DistributionSpec("uniform", theta=theta)


def exponential(theta: float = 1.0) -> DistributionSpec:
    """Exponential distribution with rate theta."""
    return DistributionSpec("exponential", theta=theta)


def logistic(theta: float = 1.0) -> DistributionSpec:
    """Logistic distribution with rate theta (location 0)."""
    return DistributionSpec("logistic", theta=theta)


def pareto(theta: float = 1.0, nu: float = 1.0) -> DistributionSpec:
    """Pareto distribution with scale theta and tail index nu."""
    return DistributionSpec("pareto", theta=theta, nu=nu)


def power_function(theta: float = 1.0, nu: float = 1.0) -> DistributionSpec:
    """Power-function distribution F(x) = (theta x)^nu on (0, 1/theta)."""
    return DistributionSpec("power_function", theta=theta, nu=nu)


def gev(xi: float = 0.0) -> DistributionSpec:
    """Generalized extreme-value distribution with shape xi (unit scale)."""
    return DistributionSpec("gev", xi=xi)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def from_dict(data: dict) -> DistributionSpec:
    """Build a spec from a mapping like {"family": "pareto", "theta": 1, "nu": 2}.

    Unknown fields and fields that do not belong to the family are rejected.
    """
    if not isinstance(data, dict):
        raise ValueError(f"distribution spec must be a JSON object, got {type(data).__name__}")
    if "family" not in data:
        raise ValueError("distribution spec is missing the 'family' field")
    family = data["family"]
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    allowed = REGISTRY[family].fields
    extra = set(data) - {"family"} - set(allowed)
    if extra:
        raise ValueError(
            f"unknown field(s) {sorted(extra)} for family {family!r}; "
            f"allowed: {sorted(allowed)}"
        )
    kwargs = {k: data[k] for k in allowed if k in data}
    return DistributionSpec(family, **kwargs)


def to_dict(dist: DistributionSpec) -> dict:
    """Round-trippable plain mapping for a spec."""
    out: dict = {"family": dist.family}
    for k in REGISTRY[dist.family].fields:
        out[k] = getattr(dist, k)
    return out


# ---------------------------------------------------------------------------
# Evaluations (scalar or ndarray in, matching type out)
# ---------------------------------------------------------------------------


def _prepare(x):
    """(value, scalar): a Python float for 0-d input, else a float ndarray,
    so that a scalar call checks a Python float and returns one, without
    numpy's 0-d array machinery."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(arr), True
    return arr, False


def _finish(arr, scalar: bool):
    return float(arr) if scalar else arr


def _prepare_probability(t, name: str):
    arr, scalar = _prepare(t)
    # nan fails both comparisons and +-inf one of them, so both are rejected.
    inside = (0.0 < arr < 1.0) if scalar else np.all((arr > 0.0) & (arr < 1.0))
    if not inside:
        raise ValueError(f"{name} requires probabilities strictly inside (0, 1)")
    return arr, scalar


def log_pdf(dist: DistributionSpec, x):
    """Natural log of the density; -inf outside the support."""
    arr, scalar = _prepare(x)
    return _finish(REGISTRY[dist.family].log_pdf(dist, arr), scalar)


def pdf(dist: DistributionSpec, x):
    """Density of the parent distribution; zero outside the support."""
    arr, scalar = _prepare(x)
    out = np.exp(log_pdf(dist, arr))
    return _finish(out, scalar)


def cdf(dist: DistributionSpec, x):
    """Distribution function of the parent."""
    arr, scalar = _prepare(x)
    return _finish(REGISTRY[dist.family].cdf(dist, arr), scalar)


def quantile(dist: DistributionSpec, t):
    """Quantile function F^{-1}(t), defined on the open interval (0, 1)."""
    arr, scalar = _prepare_probability(t, "quantile")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = REGISTRY[dist.family].quantile(dist, arr)
    return _finish(out, scalar)


def density_quantile(dist: DistributionSpec, t):
    """Density-quantile profile I(t) = f(F^{-1}(t)) on the open interval (0, 1).

    Closed form per family:

    - uniform: 1/theta
    - exponential: theta (1 - t)
    - logistic: theta t (1 - t)
    - pareto: (nu/theta) (1 - t)^{(nu+1)/nu}
    - power_function: nu theta t^{(nu-1)/nu}
    - gev: t (-ln t)^{xi+1}
    """
    arr, scalar = _prepare_probability(t, "density_quantile")
    return _finish(REGISTRY[dist.family].density_quantile(dist, arr), scalar)


def sup_density(dist: DistributionSpec) -> float:
    """Supremum of the density over the support (may be +inf).

    Closed form for every family.  For gev, sup_x f(x) = sup_t I(t) with
    I(t) = t(-ln t)^k, k = xi + 1; for xi > -1 the peak sits at -ln t = k,
    giving k^k e^{-k}.  xi = -1 gives 1 and xi < -1 gives +inf.  Past
    xi ~ 170.3, k^k e^{-k} is finite but beyond the double range, and an
    ``OverflowError`` naming the member is raised.
    """
    return REGISTRY[dist.family].sup_density(dist)


def is_log_concave(dist: DistributionSpec) -> bool:
    """Whether the parent density is log-concave on its support.

    uniform, exponential and logistic always are; pareto never is;
    power_function is log-concave exactly when nu >= 1; gev exactly when
    xi = 0 or -1 < xi < 0 (for xi > 0 the log-density has a convex region
    far in the right tail, and for xi <= -1 near the upper endpoint).
    """
    return REGISTRY[dist.family].is_log_concave(dist)
