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
from itertools import repeat

import numpy as np

from . import distributions as dist_mod
from . import evt
from . import numerics
from .distributions import INDETERMINATE, Indeterminate
from .numerics import DEFAULT_QUAD_TOL, DEFAULT_SAMPLES
from .special import _check_index, _check_real
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
# The profile factors depend only on the member and the weights only on
# (n, measure), and the integrals of the paper's grid revisit a few dozen
# panels, so both are kept in tables with a row per panel:
#
#   - the panel table: each panel's node tuple, dt/du at its nodes, its
#     half-width and, per (n, measure), a weight table of n y^(n-1) or
#     -(n^2/2) t^(2n-2) at its nodes, each computed once by pow;
#   - per member, a profile table: for every panel the member has visited,
#     its row in the panel table and I and ln I at its nodes, from the
#     family record on nodes integrate_panels has already checked to lie in
#     (0, 1), through float() as the public density_quantile does (an I that
#     underflowed to 0 has ln I = -inf, so an H panel fails as non-finite
#     instead of in math.log).
#
# Each integral first applies numerics._gk15_rows to every panel of its
# member's profile table, in one numpy pass, and hands integrate_panels the
# (value, error) of each as ``known``; the adaptive loop, the tails and the
# Wynn step run unchanged on those.  A panel new to the member goes through
# the scalar integrand and numerics._gk15, and joins the tables afterwards,
# also when the integral fails; a factor that raises joins nothing.  Every
# value is the same product of the same floats as the point integrand on
# the public API, and _gk15_rows sums as _gk15 does, so every route gives
# the same bits.
#
# On the paper's grid (catalog x TABLE_N, as tables and verify run it) the
# tables hold 59 panels, 30 members with at most 59 panels each, and 10
# (n, measure) weight tables, all well inside the caps below: the panel
# table stops growing at _ROW_CAP panels, past which new panels stay on the
# scalar path, and only the _MEMBER_CAP profile tables and _WEIGHT_CAP
# weight tables used last are kept.  The tables start empty and fill from
# the first quadrature call.
# ---------------------------------------------------------------------------

_ROW_CAP = 256
_MEMBER_CAP = 64
_WEIGHT_CAP = 64


def _profile_row(dist, ts: tuple) -> tuple[tuple, tuple]:
    """(I(t), ln I(t)) at each node of one panel."""
    profile = dist_mod.REGISTRY[dist.family].density_quantile
    values = tuple(map(float, map(profile, repeat(dist), ts)))
    try:  # map keeps math.log in C on the common path
        return values, tuple(map(math.log, values))
    except ValueError:
        return values, tuple(math.log(i) if i else -math.inf for i in values)


def _weight_row(n: int, measure: str, ts: tuple) -> tuple:
    """At each node of one panel, n y^(n-1) for H or -(n^2/2) t^(2n-2) for J."""
    if measure == "H":
        factor, power = n, n - 1
    else:
        factor, power = -(0.5 * n * n), 2 * n - 2
    return tuple(map(operator.mul, repeat(factor), map(pow, ts, repeat(power))))


def _grown(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` with twice the rows, and at least 64, the new
    ones zero."""
    grown = np.zeros((max(64, 2 * len(array)), *array.shape[1:]), array.dtype)
    grown[: len(array)] = array
    return grown


def _recent(tables: dict, key, cap: int, new):
    """``tables[key]``, made by ``new()`` if absent, as the most recently
    used entry; the least recently used entries go past ``cap``."""
    table = tables.pop(key, None)
    if table is None:
        table = new()
        while len(tables) >= cap:
            del tables[next(iter(tables))]
    tables[key] = table
    return table


class _Profile:
    """One member's profile table, a row per panel it has visited: the
    panel's (a, b), its row in the panel table, and I and ln I at its
    nodes."""

    def __init__(self):
        self.keys: dict[tuple[float, float], None] = {}  # in row order
        self.rows = np.zeros(0, dtype=np.intp)
        self.values, self.logs = np.zeros((0, 15)), np.zeros((0, 15))

    def append(self, key, row: int, values: tuple, logs: tuple) -> None:
        """Add panel ``key``, at ``row`` of the panel table."""
        k = len(self.keys)
        if k == len(self.rows):
            self.rows, self.values, self.logs = map(_grown, (self.rows, self.values, self.logs))
        self.keys[key] = None
        self.rows[k], self.values[k], self.logs[k] = row, values, logs


class _Tables:
    """The panel table -- each panel's node tuple, dt/du at its nodes,
    half-width and, per (n, measure), weights -- and the members' profile
    tables; ``cache_clear`` empties them all.  Reads and writes hold
    ``lock``, as integrals on other threads share the tables."""

    def __init__(self):
        self.lock = threading.Lock()
        self.cache_clear()

    def cache_clear(self) -> None:
        with self.lock:
            self.rows: dict[tuple[float, float], int] = {}  # panel (a, b) -> row
            self.keys: list[tuple[float, float]] = []  # row -> (a, b), shared by the profiles
            self.nodes: list[tuple] = []
            self.dtdu, self.half = np.zeros((0, 15)), np.zeros(0)
            self.weights: dict[tuple[int, str], np.ndarray] = {}  # (n, measure) -> table
            self.profiles: dict = {}  # member -> _Profile

    def _weight_table(self, n: int, measure: str) -> np.ndarray:
        """A weight table with a row for every panel."""
        table = np.zeros((len(self.half), 15))
        for row, ts in enumerate(self.nodes):
            table[row] = _weight_row(n, measure, ts)
        return table

    def known(self, profile: _Profile, n: int, measure: str) -> _Known:
        """(a, b) -> (value, error) of the (n, measure) integrand on every
        panel of the member's profile table, in one numpy pass."""
        weights = _recent(
            self.weights, (n, measure), _WEIGHT_CAP, lambda: self._weight_table(n, measure)
        )
        k = len(profile.keys)
        if not k:
            return _Known()
        rows = profile.rows[:k]
        vk, err = numerics._gk15_rows(
            weights.take(rows, axis=0),
            (profile.logs if measure == "H" else profile.values)[:k],
            self.dtdu.take(rows, axis=0),
            self.half.take(rows),
        )
        return _Known(zip(profile.keys, zip(vk.tolist(), err.tolist())))

    def join(self, profile: _Profile, n: int, measure: str, new: list) -> None:
        """Add the panels ``new`` to the member, each with its factors
        (I, ln I, weights) from the scalar (n, measure) integrand, unless
        an integral on another thread added it first."""
        for key, (values, logs, weights) in new:
            if key in profile.keys:
                continue
            row = self.rows.get(key)
            if row is None:
                row = len(self.nodes)
                if row >= _ROW_CAP:
                    continue
                if row == len(self.half):
                    self.dtdu, self.half = _grown(self.dtdu), _grown(self.half)
                    self.weights = {pair: _grown(t) for pair, t in self.weights.items()}
                ts, dtdu = numerics._panel_nodes(*key)
                self.rows[key] = row
                self.keys.append(key)
                self.nodes.append(ts)
                self.dtdu[row], self.half[row] = dtdu, 0.5 * (key[1] - key[0])
                for pair, table in self.weights.items():
                    table[row] = weights if pair == (n, measure) else _weight_row(*pair, ts)
            profile.append(self.keys[row], row, values, logs)


class _Known(dict):
    """The (value, error) of one integral on its member's panels, as
    integrate_panels reads them.  A panel new to the member is not stored
    but kept in ``new`` with ``factors``, the (I, ln I, weights) the scalar
    integrand set just before, for the tables to join after the integral;
    at most _ROW_CAP of them, as no profile table holds more."""

    def __init__(self, rules=()):
        super().__init__(rules)
        self.factors: tuple | None = None
        self.new: list = []

    def __setitem__(self, key, rule) -> None:
        if len(self.new) < _ROW_CAP:
            self.new.append((key, self.factors))


_tables = _Tables()


def _quad(dist, n: int, measure: str, tol: float) -> numerics.QuadratureResult:
    """The (n, measure) integral of ``dist`` through the tables."""
    with _tables.lock:
        profile = _recent(_tables.profiles, dist, _MEMBER_CAP, _Profile)
        known = _tables.known(profile, n, measure)

    def integrand(ts: tuple):
        values, logs = _profile_row(dist, ts)
        weights = _weight_row(n, measure, ts)
        known.factors = values, logs, weights
        return map(operator.mul, weights, logs if measure == "H" else values)

    try:
        return numerics.integrate_panels(integrand, tol, known=known)
    finally:
        with _tables.lock:
            _tables.join(profile, n, measure, known.new)


def _shannon_quad(dist, n: int, tol: float) -> MeasureValue:
    q = _quad(dist, n, "H", tol)
    value = 1.0 - math.log(n) - 1.0 / n - q.value
    return MeasureValue(value, "quadrature", q.error_estimate)


def _extropy_quad(dist, n: int, tol: float) -> MeasureValue:
    q = _quad(dist, n, "J", tol)
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
    ``quad_tol``, the quadrature's absolute tolerance, is checked on every
    route.
    """
    n = _check_index(n, "shannon_max")
    quad_tol = _check_real(quad_tol, "quad_tol")
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
    quad_tol = _check_real(quad_tol, "quad_tol")
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
