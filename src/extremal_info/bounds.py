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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import distributions as dist_mod
from . import evt
from . import measures
from .numerics import DEFAULT_QUAD_TOL
from .special import EULER_GAMMA, _check_index, _check_n_grid, half_geometric_sum, harmonic

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


def _log_two_i_half(dist) -> float:
    """ln[2 I(1/2)], the parent's term in both entropy ceilings."""
    i_half = dist_mod.density_quantile(dist, 0.5)
    if i_half == 0.0:
        raise ValueError(f"I(1/2) of {dist.label()} underflows to 0, so ln[2 I(1/2)] is undefined")
    return math.log(2.0 * i_half)


def shannon_upper_envelope(dist, n: int) -> float:
    """The finite-n entropy upper envelope (valid for log-concave parents)."""
    n = _check_index(n, "shannon_upper_envelope")
    return (
        1.0
        - _log_two_i_half(dist)
        - math.log(n)
        - 1.0 / n
        + _LN2
        + harmonic(n)
        - half_geometric_sum(n - 1)
    )


def extropy_upper_envelope(dist, n: int) -> float:
    """The finite-n extropy upper envelope (valid for log-concave parents)."""
    n = _check_index(n, "extropy_upper_envelope")
    i_half = dist_mod.density_quantile(dist, 0.5)
    coeff = (
        1.0 / (2.0 * n * (2.0 * n - 1.0))
        - math.exp(-(2.0 * n - 1.0) * _LN2) / (2.0 * n - 1.0)
        + 2.0 * math.exp(-2.0 * n * _LN2) / (2.0 * n)
    )
    return -(n * n) * i_half * coeff


def _unit_density_gate(dist, lead: str, noun: str) -> str:
    """The note for a check that presumes sup f <= 1, or "" when that holds."""
    sup = dist_mod.sup_density(dist)
    if sup > 1.0:
        return f"{lead}: sup density {sup:g} > 1 (the {noun} presumes a density bounded by 1)"
    return ""


def _report(dist, lower: float, value: float, upper: float, lower_gate: str = "") -> BoundsReport:
    """Order ``lower <= value <= upper`` under the log-concavity premise.

    A non-empty ``lower_gate`` note gates the lower check out: it is
    reported as holding vacuously and the note joins ``gate_note``.
    """
    log_concave = dist_mod.is_log_concave(dist)
    notes = [] if log_concave else [f"envelopes require a log-concave density; {dist.label()} is not"]
    if lower_gate:
        notes.append(lower_gate)
    return BoundsReport(
        lower=lower,
        value=value,
        upper=upper,
        lower_holds=bool(lower_gate) or _ext_le(lower, value),
        upper_holds=_ext_le(value, upper),
        applicable=log_concave,
        gate_note="; ".join(notes),
    )


def shannon_bounds(dist, n: int, method: str = "closed_form", *, quad_tol: float = DEFAULT_QUAD_TOL) -> BoundsReport:
    """Entropy of X_(n) against its finite-n envelopes; the lower envelope
    1 - ln n - 1/n is gated on sup f <= 1."""
    n = _check_index(n, "shannon_bounds")
    lower = 1.0 - math.log(n) - 1.0 / n
    upper = shannon_upper_envelope(dist, n)
    value = measures.shannon_max(dist, n, method, quad_tol=quad_tol).value
    return _report(dist, lower, value, upper, _unit_density_gate(dist, "lower bound not enforced", "bound"))


def extropy_bounds(dist, n: int, method: str = "closed_form", *, quad_tol: float = DEFAULT_QUAD_TOL) -> BoundsReport:
    """Extropy of X_(n) against its finite-n envelopes.

    Both envelopes are scale-covariant, so no sup-density gate applies.
    """
    n = _check_index(n, "extropy_bounds")
    lower = -0.5 * n * dist_mod.density_quantile(dist, 0.5)
    upper = extropy_upper_envelope(dist, n)
    value = measures.extropy_max(dist, n, method, quad_tol=quad_tol).value
    return _report(dist, lower, value, upper)


def shannon_limit_upper(dist) -> float:
    """Limiting entropy ceiling 1 - ln[2 I(1/2)] + gamma."""
    return 1.0 - _log_two_i_half(dist) + EULER_GAMMA


def extropy_limit_upper(dist) -> float:
    """Limiting extropy ceiling -I(1/2)/4."""
    return -0.25 * dist_mod.density_quantile(dist, 0.5)


def normalized_bounds(dist, n: int, method: str = "closed_form", *, quad_tol: float = DEFAULT_QUAD_TOL):
    """Envelopes for the normalized maximum (X_(n) - b_n)/a_n.

    Entropy bounds shift by -ln a_n and extropy bounds scale by a_n > 0
    (order-preserving), with the same applicability gates as the
    unnormalized reports.  Returns ``(shannon_report, extropy_report)``.
    """
    nc = evt.norming_constants(dist, n)
    sh = shannon_bounds(dist, n, method, quad_tol=quad_tol)
    ex = extropy_bounds(dist, n, method, quad_tol=quad_tol)
    log_a = math.log(nc.a_n)
    sh_norm = replace(
        sh,
        lower=sh.lower - log_a,
        value=sh.value - log_a,
        upper=sh.upper - log_a,
    )
    ex_norm = replace(
        ex,
        lower=nc.a_n * ex.lower,
        value=nc.a_n * ex.value,
        upper=nc.a_n * ex.upper,
    )
    return sh_norm, ex_norm


def _worst(gap, ts) -> tuple[float, float]:
    """The largest entry of ``gap`` and the grid point where it sits."""
    k = int(np.argmax(gap))
    return float(gap[k]), float(ts[k])


def envelope_check(dist, grid=None) -> EnvelopeReport:
    """Pointwise envelope checks for the density-quantile profile I(t).

    Checks 2 I(1/2) min{t, 1-t} <= I(t) (valid for every log-concave
    parent, no normalization needed) and I(t) <= 1 (which presumes
    sup f <= 1 and is flagged inapplicable otherwise, though the raw
    outcome is still reported).  The default grid is t = k/1000 for
    k = 1..999.
    """
    if grid is None:
        ts = np.arange(1, 1000) / 1000.0
    else:
        ts = np.asarray(grid, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError("grid must be a nonempty one-dimensional array")
        if np.any((ts <= 0.0) | (ts >= 1.0)):
            raise ValueError("grid points must lie strictly inside (0, 1)")

    i_vals = dist_mod.density_quantile(dist, ts)
    i_half = dist_mod.density_quantile(dist, 0.5)
    bobkov_worst, bobkov_worst_t = _worst(2.0 * i_half * np.minimum(ts, 1.0 - ts) - i_vals, ts)
    unit_worst, unit_worst_t = _worst(i_vals - 1.0, ts)
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


def exponential_gap(dist, n_grid, *, tol: float = 1e-4) -> GapStudy:
    """Signed gaps between the limiting ceilings and the exact measures.

    Emits (UB_H - H(X_(n)), UB_J - J(X_(n))) along ``n_grid``.  The study
    is classified ``attaining`` when both gaps vanish within ``tol`` at
    the largest n; within the catalog that singles out the exponential
    family, whose measures converge exactly to the ceilings.
    """
    grid = _check_n_grid(n_grid, "exponential_gap")

    h_ub = shannon_limit_upper(dist)
    j_ub = extropy_limit_upper(dist)
    records = []
    for n in grid.tolist():
        h_val = measures.shannon_max(dist, n).value
        try:
            j_val = measures.extropy_max(dist, n).value
        except ValueError:
            j_val = -math.inf
        records.append(GapRecord(n=n, shannon_gap=h_ub - h_val, extropy_gap=j_ub - j_val))

    last = records[-1]
    attaining = max(abs(last.shannon_gap), abs(last.extropy_gap)) < tol
    return GapStudy(records=tuple(records), attaining=attaining, tol=tol)
