"""Extreme-value machinery for the catalog: max-domain classification,
norming constants, limiting targets, and convergence studies.

Every catalog member lies in the max-domain of attraction of the standard
gev law with its extreme-value index xi, and the normalized maximum
(X_(n) - b_n)/a_n converges in distribution to that law, GEV(xi), whose
cdf is :func:`limit_cdf`.  The constants follow one recipe built from
U(t) = F^{-1}(1 - 1/t) and x* = sup{x : F(x) < 1}:

    b_n = U(n),   a_n = xi U(n)           (xi > 0),
                  a_n = |xi| (x* - U(n))  (xi < 0),
                  a_n = h(U(n))           (xi = 0),

with h(u) = (1 - F(u))/f(u).  Each family's index xi and constants live in
its record in :data:`extremal_info.distributions.REGISTRY`, summarized in
:func:`norming_constants`; the domain is named from the sign of xi in one
place, here.  For a gev parent the family is max-stable, so instead of the
asymptotic recipe we use the exact constants a_n = n^xi,
b_n = (n^xi - 1)/xi (a_n = 1, b_n = ln n when xi = 0), under which the
normalized maximum is again the same gev member for every n.

Because entropy of the normalized maximum is -ln a_n + H(X_(n)) and
extropy is a_n J(X_(n)), the centering b_n never enters either measure;
it is carried only for the distributional statements.  A convergence
study applies this law to the record's closed forms and norming once per
grid, on the whole n array, and holds its results as columns.  Where the
array raises, the study replays the normalized measures' scalar path n by
n, so its error is the one that path raises at the first failing n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import distributions as dist_mod
from .special import _check_index, _check_n_grid, _check_real, _math

__all__ = [
    "NormingConstants",
    "ConvergenceRecord",
    "ConvergenceStudy",
    "mda_classify",
    "norming_constants",
    "limiting_targets",
    "limit_cdf",
    "normalized_maximum_cdf",
    "convergence_study",
]


def _domain(xi: float) -> str:
    """The domain of attraction named by the sign of a finite index xi."""
    xi = _check_real(xi, "xi", positive=False)
    if xi == 0.0:
        return "gumbel"
    return "frechet" if xi > 0.0 else "reversed_weibull"


@dataclass(frozen=True)
class NormingConstants:
    """Scaling a_n > 0 and centering b_n for the maximum of n draws, with
    the parent's extreme-value index xi."""

    a_n: float
    b_n: float
    xi: float

    def __post_init__(self):
        _check_real(self.a_n, "a_n")
        _domain(self.xi)  # rejects a non-finite xi

    @property
    def domain(self) -> str:
        return _domain(self.xi)


@dataclass(frozen=True, slots=True)
class ConvergenceRecord:
    """Normalized measures at one n, with absolute gaps to the targets."""

    n: int
    h_normalized: float
    j_normalized: float
    h_target: float
    j_target: float
    h_gap: float
    j_gap: float


@dataclass(frozen=True, eq=False)
class ConvergenceStudy:
    """A convergence sweep over an n-grid, held as columns.

    Each :class:`ConvergenceRecord` field is an attribute: ``n`` and the
    normalized measures and gaps are read-only arrays along the grid, and
    the targets, H and J of the limit law GEV(xi), are constants.
    ``records`` gives the rows.  ``burn_in_index`` is the first index from
    which both gap sequences are non-increasing through the end of the
    grid.  ``extension_targets`` flags xi != 0: the paper's convergence
    statement is the Gumbel case, which these targets extend.
    """

    n: np.ndarray
    h_normalized: np.ndarray
    j_normalized: np.ndarray
    h_target: float
    j_target: float
    h_gap: np.ndarray
    j_gap: np.ndarray
    burn_in_index: int
    xi: float

    @property
    def records(self) -> tuple[ConvergenceRecord, ...]:
        return tuple(
            map(
                ConvergenceRecord,
                self.n.tolist(),
                self.h_normalized.tolist(),
                self.j_normalized.tolist(),
                repeat(self.h_target),
                repeat(self.j_target),
                self.h_gap.tolist(),
                self.j_gap.tolist(),
            )
        )

    @property
    def domain(self) -> str:
        return _domain(self.xi)

    @property
    def extension_targets(self) -> bool:
        return self.domain != "gumbel"


def mda_classify(dist) -> tuple[str, float]:
    """Max-domain of attraction of a catalog member as (domain, xi).

    Every normalized maximum tends to GEV(xi); the domain names the sign
    of xi.  Exponential and logistic parents are Gumbel (xi = 0); uniform
    and power-function parents have a density that stays positive and
    finite at their finite right endpoint, which forces xi = -1 (for any
    shape nu); Pareto has xi = 1/nu; a gev parent is max-stable.
    """
    xi = dist_mod.REGISTRY[dist.family].evi(dist)
    return (_domain(xi), xi)


def norming_constants(dist, n: int) -> NormingConstants:
    """Norming constants of a catalog member for the maximum of n draws.

    One recipe, b = U(n) and a = xi U(n), |xi| (x* - U(n)) or h(U(n)),
    under which the normalized maximum tends to GEV(xi).  Exp(theta):
    a = 1/theta, b = ln(n)/theta.  Uniform(0, theta): a = theta/n,
    b = theta - a.  Pareto(theta, nu): b = theta n^{1/nu}, a = b/nu.
    Power-function: a = (1 - (1-1/n)^{1/nu})/theta, b = 1/theta - a.
    Logistic goes through h (undefined at n = 1 and where 1 - 1/n rounds
    to 1, as the 1 - 1/n quantile is then infinite); a gev parent uses its
    exact max-stable constants a = n^xi, b = (n^xi - 1)/xi.  xi is checked
    before the constants.
    """
    n = _check_index(n, "norming_constants")
    a, b, xi = _norming(dist, n)
    nc = object.__new__(NormingConstants)  # _norming ran __post_init__'s checks, in order
    nc.__dict__.update(a_n=a, b_n=b, xi=xi)
    return nc


def _norming(dist, n: int) -> tuple:
    """(a_n, b_n, xi) at a checked n: xi's domain before the constants, a_n
    after.  A record that overflows (n^xi of a gev member, say), or whose
    a_n float arithmetic takes to inf or to 0, is named."""
    record = dist_mod.REGISTRY[dist.family]
    xi = record.evi(dist)
    _domain(xi)
    try:
        a, b = record.norming(dist, n)
    except OverflowError:
        a = math.inf  # named below, as an a_n that float arithmetic takes to inf
    if a == math.inf:
        raise OverflowError(f"norming constants for {dist.label()} overflow the double range at n={n}")
    if a == 0.0:
        raise ValueError(f"norming constants for {dist.label()} underflow the double range at n={n}")
    _check_real(a, "a_n")
    return a, b, xi


def limiting_targets(xi: float) -> tuple[float, float]:
    """(entropy, extropy) of the standard gev member with shape ``xi``.

    These are the n = 1 closed forms of the max-stable family: H = 1 +
    gamma + xi*gamma and J = -Gamma(xi + 2)/2^{xi+3} (J = -inf for
    xi <= -2).  At xi = 0 they are the Gumbel targets (1 + gamma, -1/8).
    """
    member = dist_mod.gev(xi)
    record = dist_mod.REGISTRY["gev"]
    try:
        j = record.extropy(member, 1)
    except ValueError:
        j = -math.inf
    return (record.shannon(member, 1), j)


def limit_cdf(xi: float, x):
    """CDF of GEV(xi), the limit law of every normalized maximum: the gev
    record's cdf.  :func:`~extremal_info.distributions.gev` declines a
    non-finite xi."""
    return dist_mod.cdf(dist_mod.gev(xi), x)


def normalized_maximum_cdf(dist, n: int, x):
    """Exact CDF of (X_(n) - b_n)/a_n, namely F(a_n x + b_n)^n."""
    nc = norming_constants(dist, n)
    return dist_mod.cdf(dist, nc.a_n * np.asarray(x, dtype=float) + nc.b_n) ** n


def _normalized(record, dist, n):
    """h = H - ln a_n and j = a_n J along the n array.  A record's error
    passes through, and an a_n that is not a positive finite real raises:
    either tells the study to replay the scalar path, which names the
    error."""
    # a grid past int64 is an object array, and so may be its a_n
    a_n = np.asarray(record.norming(dist, n)[0], dtype=float)
    if not ((a_n > 0.0) & np.isfinite(a_n)).all():
        raise ValueError(f"an a_n of {dist.label()} is not a positive finite real")
    h = record.shannon(dist, n) - _math(np.ndarray).log(a_n)
    return h, a_n * record.extropy(dist, n)


def convergence_study(dist, n_grid) -> ConvergenceStudy:
    """Normalized measures along an n-grid against their limiting targets.

    The targets are :func:`limiting_targets` of the record's xi, H and J
    of the limit law GEV(xi), flagged as an extension outside the Gumbel
    case.  The grid and xi are checked once (``gev(xi)`` declines a
    non-finite xi).  The family record's norming and closed forms are
    called once, on the whole grid as an array, which gives the bits of
    the scalar calls, and the transformation law of the module docstring
    is applied to the columns.  Where the array raises or gives an a_n
    that is not a positive finite real, the study replays the normalized
    measures' scalar path (``_norming``, then H and J, at each n in turn)
    and raises that path's error at its first failing n.  Gaps are
    absolute deviations; the reported burn-in index is where both gap
    sequences become non-increasing through the end of the grid.
    """
    n = _check_n_grid(n_grid, "convergence_study")

    record = dist_mod.REGISTRY[dist.family]
    xi = record.evi(dist)
    h_target, j_target = limiting_targets(xi)

    # numpy flags what Python floats let overflow to inf or nan in silence
    with np.errstate(all="ignore"):
        try:
            h, j = _normalized(record, dist, n)
        except (ArithmeticError, ValueError):
            # an array raises at its first failing element, stage by stage;
            # the normalized measures' scalar path, n by n, raises the error
            # of the first failing n
            for m in n.tolist():
                _norming(dist, m)
                record.shannon(dist, m)
                record.extropy(dist, m)
            raise
        h, j = np.asarray(h, dtype=float), np.asarray(j, dtype=float)
        h_gap, j_gap = np.abs(h - h_target), np.abs(j - j_target)

    # First index from which both gap sequences decay monotonically (up to
    # roundoff) through the end of the grid: one past the last rise.
    tol = 1e-12
    rises = ~((h_gap[1:] <= h_gap[:-1] + tol) & (j_gap[1:] <= j_gap[:-1] + tol))
    burn_in = int(np.flatnonzero(rises)[-1]) + 1 if rises.any() else 0
    for column in (n, h, j, h_gap, j_gap):
        column.flags.writeable = False
    return ConvergenceStudy(n, h, j, h_target, j_target, h_gap, j_gap, burn_in, xi)
