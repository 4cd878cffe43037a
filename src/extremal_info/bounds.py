"""Finite-n and limiting bounds for the entropy and extropy of maxima.

For a log-concave parent density the information measures of X_(n) are
pinched between explicit envelopes built from I(1/2) = f(F^{-1}(1/2)):

    1 - ln n - 1/n  <=  H(X_(n))  <=  1 - ln[2 I(1/2)] - ln n - 1/n
                                       + ln 2 + H_n - sum_{k=1}^{n-1} 1/(k 2^k)

    -(n/2) I(1/2)   <=  J(X_(n))  <= -n^2 I(1/2) [ 1/(2n-1) - 1/(2n)
                                       - 1/((2n-1) 2^{2n-1}) + 2/(2n 2^{2n}) ]

As n grows the upper envelopes settle at the limiting ceilings

    UB_H = 1 - ln[2 I(1/2)] + gamma,        UB_J = -I(1/2)/4,

and the gap between ceiling and measure closes exactly for the
exponential family: that attainment property characterizes it within the
catalog, which :func:`exponential_gap` turns into a diagnostic.

One caveat is enforced throughout: the entropy lower bound (and the
companion pointwise envelope I(t) <= 1) presumes a density bounded by 1;
e.g. Exp(theta = 3) at n = 1 has H = 1 - ln 3 < 0, beneath the stated
lower bound.  Reports therefore gate those two checks on sup f <= 1 and
say so in ``gate_note`` instead of silently passing or failing them.
Every call that reads I(1/2) declines by name where it is inf or nan,
instead of reporting an ordering of infinities or nans.  The log forms
read ln[2 I(1/2)] off I(1/2) where it is a normal double, and, where it
underflows, off the record's log profile ln I at ln t = ln(1 - t) = -ln 2,
so a member whose I(1/2) is 0 still has an entropy ceiling.  I(1/2), the
log-concavity verdict, sup f and the label are taken from the record once
per spec and kept on it; a report is built from these checked parts
without re-running its ``__init__``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import distributions as dist_mod
from . import evt
from . import measures
from .numerics import DEFAULT_QUAD_TOL
from .special import _DOUBLE_MAX_INT, EULER_GAMMA, _check_index, _check_n_grid, _from_checked
from .special import half_geometric_sum, harmonic

__all__ = [
    "BoundsReport",
    "EnvelopeReport",
    "GapRecord",
    "GapStudy",
    "shannon_bounds",
    "extropy_bounds",
    "shannon_upper_envelope",
    "extropy_upper_envelope",
    "shannon_limit_upper",
    "extropy_limit_upper",
    "normalized_bounds",
    "envelope_check",
    "exponential_gap",
]

_LN2 = math.log(2.0)

# Comparison slack for the *_holds flags: the orderings are mathematical,
# the slack only absorbs last-bit rounding in the closed forms.
_ORDER_TOL = 1e-12

# The grid of envelope_check, t = k/1000 for k = 1..999.
_ENVELOPE_GRID = np.arange(1, 1000) / 1000.0
_ENVELOPE_GRID.flags.writeable = False

# The gap below which exponential_gap calls a study attaining (acceptance
# check 5's threshold).
_ATTAINMENT_TOL = 1e-4


@dataclass(frozen=True)
class BoundsReport:
    """One measure of X_(n) sandwiched between explicit envelopes.

    ``lower_holds``/``upper_holds`` are raw ordering checks.  ``applicable``
    says whether the envelopes' premise (a log-concave parent) holds for
    this member; when a check is gated out (see module docstring) it is
    reported as holding vacuously and ``gate_note`` explains why.
    """

    lower: float
    value: float
    upper: float
    lower_holds: bool
    upper_holds: bool
    applicable: bool
    gate_note: str = ""


@dataclass(frozen=True)
class EnvelopeReport:
    """Pointwise density-quantile envelope checks on a grid in (0, 1)."""

    bobkov_holds: bool
    bobkov_worst_violation: float
    bobkov_worst_t: float
    unit_upper_applicable: bool
    unit_upper_holds: bool
    unit_upper_worst_violation: float
    unit_upper_worst_t: float
    gate_note: str = ""


@dataclass(frozen=True)
class GapRecord:
    """Signed distances from the limiting ceilings at one n."""

    n: int
    shannon_gap: float
    extropy_gap: float


@dataclass(frozen=True)
class GapStudy:
    """Ceiling-gap sweep; ``attaining`` means both gaps vanish at the end."""

    records: tuple[GapRecord, ...]
    attaining: bool
    tol: float


def _ext_le(a: float, b: float) -> bool:
    """Extended-real a <= b with roundoff slack for finite comparisons."""
    if math.isinf(a) or math.isinf(b):
        return a <= b
    return a <= b + _ORDER_TOL * max(1.0, abs(a), abs(b))


_LOG_FORM = "ln[2 I(1/2)]"
_LINEAR_FORM = "a bound linear in I(1/2)"


def _i_half(dist, form: str) -> float:
    """I(1/2), declined by name, for the ``form`` in it a call takes, where
    it is inf or nan."""
    i_half = dist._i_half
    if not math.isfinite(i_half):
        raise ValueError(f"I(1/2) of {dist._label} evaluates to {i_half}, so {form} is undefined")
    return i_half


def _log_2_i_half(dist) -> float:
    """ln[2 I(1/2)]: from I(1/2) where it is a normal double, else, where it
    underflows, from the record's log profile at ln t = ln(1 - t) = -ln 2;
    declined by name where I(1/2) is inf or nan, or its log not finite."""
    i_half = _i_half(dist, _LOG_FORM)
    if i_half >= sys.float_info.min:
        return math.log(2.0 * i_half)
    log_i_half = float(dist_mod.REGISTRY[dist.family].log_density_quantile(dist, -_LN2, -_LN2))
    if not math.isfinite(log_i_half):
        raise ValueError(
            f"I(1/2) of {dist._label} underflows to {i_half} and ln I(1/2) evaluates to {log_i_half}, "
            f"so {_LOG_FORM} is undefined"
        )
    return _LN2 + log_i_half


# The envelopes, pure functions of I(1/2) and a checked n


def _shannon_envelope(log_2_i_half: float, n: int) -> float:
    return (
        1.0
        - log_2_i_half
        - math.log(n)
        - 1 / n
        + _LN2
        + harmonic(n)
        - half_geometric_sum(n - 1)
    )


def _extropy_envelope(i_half: float, n: int) -> float:
    coeff = 0.0
    if n <= _DOUBLE_MAX_INT:  # past it 2n has no double, and coeff is 0
        coeff = (
            1.0 / (2.0 * n * (2.0 * n - 1.0))
            - math.exp(-(2.0 * n - 1.0) * _LN2) / (2.0 * n - 1.0)
            + 2.0 * math.exp(-2.0 * n * _LN2) / (2.0 * n)
        )
    if coeff < sys.float_info.min:
        # 4 n^2 has left the normal doubles (n past about 3.4e153), so coeff
        # has lost its bits or rounded to 0; both powers of 2 are 0 there,
        # and n^2 coeff = n / (2 (2n - 1)) = 1 / (2 (2 - 1/n)), near 1/4
        return -i_half * (0.5 / (2.0 - 1 / n))
    scaled = -(n * n) * i_half
    # n^2 I(1/2) can overflow where the envelope, near -I(1/2)/4, is a double
    return scaled * coeff if scaled > -math.inf else -i_half * ((n * n) * coeff)


def shannon_upper_envelope(dist, n: int) -> float:
    """The finite-n entropy upper envelope (valid for log-concave parents)."""
    n = _check_index(n, "shannon_upper_envelope")
    return _shannon_envelope(_log_2_i_half(dist), n)


def extropy_upper_envelope(dist, n: int) -> float:
    """The finite-n extropy upper envelope (valid for log-concave parents)."""
    n = _check_index(n, "extropy_upper_envelope")
    return _extropy_envelope(_i_half(dist, _LINEAR_FORM), n)


def _unit_density_gate(dist, lead: str, noun: str) -> str:
    """The note for a check that presumes sup f <= 1, or "" when that holds."""
    shown = dist._sup_density_above_1
    return shown and f"{lead}: sup density {shown} > 1 (the {noun} presumes a density bounded by 1)"


def _report(dist, lower: float, value: float, upper: float, lower_gate: str = "") -> BoundsReport:
    """Order ``lower <= value <= upper`` under the log-concavity premise.

    A non-empty ``lower_gate`` note gates the lower check out: it is
    reported as holding vacuously and the note joins ``gate_note``.
    """
    notes = [] if dist._log_concave else [f"envelopes require a log-concave density; {dist._label} is not"]
    if lower_gate:
        notes.append(lower_gate)
    return _from_checked(
        BoundsReport,
        lower=lower,
        value=value,
        upper=upper,
        lower_holds=bool(lower_gate) or _ext_le(lower, value),
        upper_holds=_ext_le(value, upper),
        applicable=dist._log_concave,
        gate_note="; ".join(notes),
    )


def _extropy_floor(dist, n: int, i_half: float) -> float:
    """The extropy lower envelope -n I(1/2)/2 of a finite I(1/2), with n past
    the doubles taken exactly; an envelope beyond the doubles is named,
    whether n is past them or the product overflows."""
    try:
        floor = -0.5 * n * i_half if n <= _DOUBLE_MAX_INT else -float(n * Fraction(i_half) / 2)
    except OverflowError:
        floor = -math.inf
    if floor == -math.inf:
        raise OverflowError(f"extropy lower envelope of {dist._label} at n={n} is beyond the double range")
    return floor


# Each report takes its measure first: quad_tol and the method are checked
# before any envelope is taken.
def _shannon_report(dist, n: int, log_2_i_half: float, method: str, quad_tol) -> BoundsReport:
    ((value, _, _),) = measures._measures(dist, n, "H", method, quad_tol)
    lower = 1.0 - math.log(n) - 1 / n
    upper = _shannon_envelope(log_2_i_half, n)
    return _report(dist, lower, value, upper, _unit_density_gate(dist, "lower bound not enforced", "bound"))


def _extropy_report(dist, n: int, i_half: float, method: str, quad_tol) -> BoundsReport:
    ((value, _, _),) = measures._measures(dist, n, "J", method, quad_tol)
    lower = _extropy_floor(dist, n, i_half)
    upper = _extropy_envelope(i_half, n)
    return _report(dist, lower, value, upper)


def shannon_bounds(dist, n: int, method: str = "closed_form", *, quad_tol: float = DEFAULT_QUAD_TOL) -> BoundsReport:
    """Entropy of X_(n) against its finite-n envelopes; the lower envelope
    1 - ln n - 1/n is gated on sup f <= 1."""
    n = _check_index(n, "shannon_bounds")
    return _shannon_report(dist, n, _log_2_i_half(dist), method, quad_tol)


def extropy_bounds(dist, n: int, method: str = "closed_form", *, quad_tol: float = DEFAULT_QUAD_TOL) -> BoundsReport:
    """Extropy of X_(n) against its finite-n envelopes.

    Both envelopes are scale-covariant, so no sup-density gate applies.
    """
    n = _check_index(n, "extropy_bounds")
    return _extropy_report(dist, n, _i_half(dist, _LINEAR_FORM), method, quad_tol)


def shannon_limit_upper(dist) -> float:
    """Limiting entropy ceiling 1 - ln[2 I(1/2)] + gamma."""
    return 1.0 - _log_2_i_half(dist) + EULER_GAMMA


def extropy_limit_upper(dist) -> float:
    """Limiting extropy ceiling -I(1/2)/4."""
    return -0.25 * _i_half(dist, _LINEAR_FORM)


def normalized_bounds(dist, n: int):
    """Envelopes for the normalized maximum (X_(n) - b_n)/a_n, in closed form.

    Entropy bounds shift by -ln a_n and extropy bounds scale by a_n > 0
    (order-preserving), with the same applicability gates as the
    unnormalized reports.  Returns ``(shannon_report, extropy_report)``.
    """
    n = _check_index(n, "normalized_bounds")
    a_n = evt._norming(dist, n)[0]
    sh = _shannon_report(dist, n, _log_2_i_half(dist), "closed_form", DEFAULT_QUAD_TOL)
    ex = _extropy_report(dist, n, _i_half(dist, _LINEAR_FORM), "closed_form", DEFAULT_QUAD_TOL)
    log_a = math.log(a_n)
    return (
        replace(sh, lower=sh.lower - log_a, value=sh.value - log_a, upper=sh.upper - log_a),
        replace(ex, lower=a_n * ex.lower, value=a_n * ex.value, upper=a_n * ex.upper),
    )


def _worst(gap) -> tuple[float, float]:
    """The largest entry of ``gap`` on the envelope grid and the t where it sits."""
    k = int(np.argmax(gap))
    return float(gap[k]), float(_ENVELOPE_GRID[k])


def envelope_check(dist) -> EnvelopeReport:
    """Pointwise envelope checks for the density-quantile profile I(t).

    Checks 2 I(1/2) min{t, 1-t} <= I(t) (valid for every log-concave
    parent, no normalization needed) and I(t) <= 1 (which presumes
    sup f <= 1 and is flagged inapplicable otherwise, though the raw
    outcome is still reported) on the grid t = k/1000, k = 1..999.  Where
    I(1/2) is inf or nan the first envelope has no value, and a
    ``ValueError`` names the member.
    """
    i_half = _i_half(dist, "the envelope 2 I(1/2) min(t, 1 - t)")
    ts = _ENVELOPE_GRID
    i_vals = dist_mod.density_quantile(dist, ts)
    bobkov_worst, bobkov_worst_t = _worst(2.0 * i_half * np.minimum(ts, 1.0 - ts) - i_vals)
    unit_worst, unit_worst_t = _worst(i_vals - 1.0)
    note = _unit_density_gate(dist, "I(t) <= 1 not applicable", "envelope")
    return EnvelopeReport(
        bobkov_holds=bobkov_worst <= _ORDER_TOL,
        bobkov_worst_violation=bobkov_worst,
        bobkov_worst_t=bobkov_worst_t,
        unit_upper_applicable=not note,
        unit_upper_holds=unit_worst <= _ORDER_TOL,
        unit_upper_worst_violation=unit_worst,
        unit_upper_worst_t=unit_worst_t,
        gate_note=note,
    )


def exponential_gap(dist, n_grid) -> GapStudy:
    """Signed gaps between the limiting ceilings and the exact measures.

    Emits (UB_H - H(X_(n)), UB_J - J(X_(n))) along ``n_grid``.  The study
    is classified ``attaining`` when both gaps are below 1e-4, the
    study's ``tol``, at the largest n; within the catalog that singles out
    the exponential family, whose measures converge exactly to the
    ceilings.
    """
    grid = _check_n_grid(n_grid, "exponential_gap")

    h_ub = shannon_limit_upper(dist)
    j_ub = extropy_limit_upper(dist)
    records = []
    for n in grid.tolist():
        ((h_val, _, _),) = measures._measures(dist, n, "H", "closed_form", DEFAULT_QUAD_TOL)
        try:
            ((j_val, _, _),) = measures._measures(dist, n, "J", "closed_form", DEFAULT_QUAD_TOL)
        except ValueError:
            j_val = -math.inf
        records.append(GapRecord(n=n, shannon_gap=h_ub - h_val, extropy_gap=j_ub - j_val))

    last = records[-1]
    attaining = max(abs(last.shannon_gap), abs(last.extropy_gap)) < _ATTAINMENT_TOL
    return GapStudy(records=tuple(records), attaining=attaining, tol=_ATTAINMENT_TOL)
