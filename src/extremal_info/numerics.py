"""Deterministic numerics: quadrature on (0, 1), Monte Carlo on (0, 1), and
grid concavity checks.

Quadrature
----------
:func:`integrate_unit` integrates a black-box integrand over the open unit
interval.  The variable change ``t = (1 + tanh(u/2))/2`` (the logistic map)
sends both endpoints to infinity, which turns the admissible endpoint
singularities -- ``ln t``, ``ln(1 - t)``, ``ln(-ln t)`` and ``t**-alpha``
with ``alpha < 1`` -- into smooth, exponentially decaying profiles in ``u``.
The transformed integrand is handled by adaptive bisection with a fixed
Gauss-Kronrod 7/15 kernel (worst cell split first, evaluations capped, with
an explicit failure carrying the best estimate, tails included, instead of
silent truncation).  The residual mass beyond the working window is summed
by Wynn epsilon extrapolation of unit-width tail cells, which is exact for
the geometric decay the transform produces.  The 15 nodes of a panel depend
only on its u-interval, so they are computed and range-checked once per
distinct panel and kept in a bounded cache.  The adaptive loop,
:func:`_integrate`, asks a panel rule for the GK15 (value, error) of each
panel it visits, once and in visit order, and keeps no panel of its own.
:func:`integrate_unit` is that loop over the scalar rule :func:`_gk15` of
a point integrand called once per node.  A caller that integrates many
integrands over the same panels can rule them all at once --
:func:`_gk15_rows` applies the GK15 rule to a stack of panels in one numpy
pass, with the bits of the scalar rule -- and hand :func:`_integrate` a
rule that reads those pairs, so the adaptive loop, the tails and the
result stay the same.  A panel whose value or error is not finite (the
integrand overflowed or returned nan) fails at once with the panel's place
in the message -- its t-interval, or its (1 - t)-interval right of u = 0,
where t rounds to 1 -- instead of spending the evaluation budget on an
error that can never shrink.

Monte Carlo
-----------
Sampling uses ``numpy.random.Generator`` seeded with an explicit integer so
that identical seeds give identical streams.  If a task ever needs several
independent streams, spawn children of ``np.random.SeedSequence(seed)`` in
task order rather than reusing consecutive integer seeds.  The estimators
sample in t, as the quadrature integrates in t: T = F(X_(n)) of a maximum
of n i.i.d. draws is Beta(n, 1), drawn in one shot as ``V^{1/n}`` with
``V`` uniform on (0, 1), and the density of the maximum at X_(n) is
``n T^{n-1} I(T)``, so the parent enters only through its profile I and
never through its quantile, cdf or density.  A summand that is not finite
(a profile that underflowed to 0 near t = 1, or overflowed) fails the
estimate with a ``ValueError`` naming the summand before any moment is
taken.  The moments are taken of the summands scaled by a power of 2, so
a mean or standard error that is a double does not overflow on the way.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import distributions as dist_mod
from .special import _check_index, _check_real

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "McEstimate",
    "ConcavityReport",
    "integrate_unit",
    "mc_entropy_max",
    "mc_extropy_max",
    "grid_concavity_check",
]

# Defaults shared by every quadrature and Monte Carlo entry point and the
# CLI's options, and the rules for the sample count and the seed, the
# package's only checks on these values (a tolerance is a real, checked by
# special._check_real); a rule's ``name`` is the caller's, for the message.
DEFAULT_QUAD_TOL = 1e-10
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 0
MIN_SAMPLES = 100


def _check_samples(samples, name: str = "samples") -> int:
    """A Monte Carlo sample count: an integer of at least ``MIN_SAMPLES``."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {samples!r}")
    if samples < MIN_SAMPLES:
        raise ValueError(f"{name} must be at least {MIN_SAMPLES}, got {samples}")
    return int(samples)


def _check_seed(seed, name: str = "seed") -> int:
    """A Monte Carlo seed: a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a quadrature run: value, honest error bound, work done."""

    value: float
    error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement cannot reach the requested tolerance.

    Carries the best available estimate in ``best`` rather than silently
    returning a truncated value.
    """

    def __init__(self, message: str, best: QuadratureResult | None = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    std_error: float
    samples: int
    seed: int


@dataclass(frozen=True)
class ConcavityReport:
    """Result of a second-difference concavity scan over a grid."""

    concave: bool
    worst_violation: float
    violations: tuple = ()
    tol: float = 0.0


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 kernel (standard double-precision nodes and weights).
# Even indices are Kronrod-only abscissae, odd indices are the embedded
# 7-point Gauss abscissae.
# ---------------------------------------------------------------------------

_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.02293532201052922,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.16900472663926790,
    0.19035057806478540,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.12948496616886969,
    0.27970539148927666,
    0.38183005050511894,
    0.41795918367346938,
)

# Working window in u-space.  The left edge keeps t = sigma(u) a normal
# double (so power singularities at t -> 0 are evaluated exactly); the right
# edge stops where 1 - t is still ~3e-10, far above the rounding granularity
# of doubles near 1, so evaluations stay clean.  Mass beyond either edge is
# recovered by tail extrapolation.
_U_LEFT = -392.0
_U_RIGHT = 22.0
_TAIL_CELLS = 7
_MAX_EVALS = 400_000


def _logistic_nodes(us) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the logistic map at each u: t = sigma(u) in
    (0, 1) and dt/du = sigma(u) sigma(-u), both without cancellation, from
    one exp per u."""
    ts, ws = [], []
    for u in us:
        z = math.exp(-abs(u))
        s = 1.0 + z
        ts.append(1.0 / s if u >= 0.0 else z / s)
        ws.append(z / (s * s))
    return tuple(ts), tuple(ws)


@functools.lru_cache(maxsize=256)
def _panel_nodes(a: float, b: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The 15 nodes t and weights dt/du of the GK15 panel on [a, b] in u-space.

    Both tuples are ordered as :func:`_gk15` sums them: c, c - x_0, c + x_0,
    ..., c - x_6, c + x_6.  Every t is checked once here to lie in (0, 1), so
    integrands may take the nodes as already-validated probabilities.  The
    cache is bounded: the seed panels, their bisections and the tail cells
    repeat across integrals, so a few dozen distinct panels cover ``tables``
    and ``verify``.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    us = [c]
    for xgk in _XGK[:7]:
        x = h * xgk
        us += (c - x, c + x)
    ts, ws = _logistic_nodes(us)
    if not all(0.0 < t < 1.0 for t in ts):
        raise ValueError(f"GK15 panel [{a!r}, {b!r}] has a node outside (0, 1)")
    return ts, ws


def _gk15(g, a: float, b: float) -> tuple[float, float]:
    """Gauss-Kronrod 7/15 rule for g's values times dt/du on [a, b] in
    u-space: (Kronrod value, |K15 - G7|).  ``g`` maps the panel's node tuple
    to the 15 integrand values in the same order."""
    ts, ws = _panel_nodes(a, b)
    # f0 at the centre c, then f(c - x_j), f(c + x_j) for j = 0..6, each
    # times dt/du; zip fails unless g gave exactly 15 values.
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14 = itertools.starmap(
        operator.mul, zip(g(ts), ws, strict=True)
    )
    p0, p1, p2, p3, p4, p5, p6 = f1 + f2, f3 + f4, f5 + f6, f7 + f8, f9 + f10, f11 + f12, f13 + f14
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    # Left to right: the centre term first, then j = 0..6 (odd j for G7).
    resk = k7 * f0 + k0 * p0 + k1 * p1 + k2 * p2 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6
    resg = _WG[3] * f0 + _WG[0] * p1 + _WG[1] * p3 + _WG[2] * p5
    h = 0.5 * (b - a)
    return h * resk, abs(h * (resk - resg))


# _gk15's coefficients in its order of summation, as columns: the centre
# term first, then j = 0..6 (odd j for G7).
_KRONROD = np.array([_WGK[7], *_WGK[:7]])[:, None]
_GAUSS = np.array([_WG[3], *_WG[:3]])[:, None]


def _gk15_rows(w, v, dtdu, half) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_gk15` on k panels at once, bit for bit, for an integrand that
    is a product w x v.

    Row i of the (k, 15) arrays ``w``, ``v`` and ``dtdu`` holds panel i's
    factors and dt/du at its nodes in the order :func:`_gk15` sums them, and
    ``half[i]`` its half-width 0.5 (b - a).  Every element goes through the
    IEEE operations of :func:`_gk15` in the same order -- (w v) dt/du, the
    pair sums, then each rule summed left to right, as ``add.accumulate``
    defines its running sum -- so row i has the scalar rule's bits on that
    panel, inf and nan included, and no floating-point warning is raised.
    Returns the arrays of Kronrod values and |K15 - G7|.
    """
    with np.errstate(all="ignore"):
        f = (w * v * dtdu).T
        terms = np.empty((8, len(half)))
        terms[0] = f[0]
        np.add(f[1::2], f[2::2], out=terms[1:])  # the pairs f(c - x_j) + f(c + x_j)
        resk = np.add.accumulate(_KRONROD * terms)[-1]
        resg = np.add.accumulate(_GAUSS * terms[0::2])[-1]
        return half * resk, np.abs(half * (resk - resg))


def _wynn_limit(sums: list[float]) -> tuple[float, float]:
    """Wynn epsilon acceleration of a sequence of partial sums.

    Returns the best even-column estimate of the limit together with the
    spread of the last two even columns, used as an error proxy.
    """
    estimates = [sums[-1]]
    prev = [0.0] * (len(sums) + 1)
    curr = list(sums)
    col = 0
    while len(curr) >= 2:
        nxt = []
        ok = True
        for i in range(len(curr) - 1):
            diff = curr[i + 1] - curr[i]
            if diff == 0.0 or not math.isfinite(diff):
                ok = False
                break
            nxt.append(prev[i + 1] + 1.0 / diff)
        if not ok:
            break
        prev, curr = curr, nxt
        col += 1
        if col % 2 == 0 and curr and all(math.isfinite(v) for v in curr):
            estimates.append(curr[-1])
    if len(estimates) >= 2:
        spread = abs(estimates[-1] - estimates[-2])
    else:
        spread = abs(sums[-1] - sums[0])
    return estimates[-1], spread


def _tail_sum(panel, best, edge: float, direction: int) -> tuple[float, float]:
    """Extrapolated integral beyond `edge` toward +/- infinity.

    Integrates unit-width cells with ``panel`` marching away from the
    working window and sums the (nearly geometric) sequence with Wynn
    epsilon.  Raises QuadratureError, with ``best(value, error)`` as its
    estimate, when the cells fail to decay, which signals a non-integrable
    endpoint.
    """
    cells = []
    for m in range(_TAIL_CELLS):
        a = edge + direction * m
        b = edge + direction * (m + 1)
        lo, hi = (a, b) if direction > 0 else (b, a)
        vk, _ = panel(lo, hi)
        cells.append(vk)
    scale = max(abs(c) for c in cells)
    if scale == 0.0:
        return 0.0, 0.0
    if abs(cells[-1]) >= 0.9999 * abs(cells[0]) and abs(cells[0]) > 1e-300:
        partial = math.fsum(cells)
        raise QuadratureError(
            "endpoint contribution does not decay; the integrand looks "
            "non-integrable at the boundary",
            best=best(partial, abs(partial)),
        )
    partial = list(itertools.accumulate(cells))
    limit, spread = _wynn_limit(partial)
    # Guard against extrapolation overshoot: the tail cannot exceed a
    # generous geometric continuation of the last cell.
    last = abs(cells[-1])
    ratio = min(abs(cells[-1]) / max(abs(cells[-2]), 1e-300), 0.999)
    cont = last * ratio / (1.0 - ratio)
    overshoot = abs(limit - partial[-1])
    if overshoot > 10.0 * (cont + 1e-300) + 1e-15:
        limit = partial[-1] + math.copysign(min(overshoot, cont), limit - partial[-1])
        spread = max(spread, cont)
    err = spread + 1e-16 * abs(limit) + 0.05 * abs(limit - partial[-1])
    return limit, err


def integrate_unit(f, abs_tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate ``f`` over the open interval (0, 1) to absolute tolerance.

    Parameters
    ----------
    f : callable
        Real integrand, finite on the open interval, called with one Python
        float t at a time.  Integrable endpoint singularities of the types
        ln t, ln(1 - t), ln(-ln t) and t**-alpha (alpha < 1) are supported.
        Each t is a panel node computed and checked to lie in (0, 1) once
        per distinct panel, in a bounded cache shared by all calls.
    abs_tol : float
        Target absolute tolerance; the returned ``error_estimate`` is an
        honest bound and may exceed ``abs_tol`` only together with an
        explicit :class:`QuadratureError`, raised with the best estimate --
        the window so far plus both tails -- once the evaluations exceed
        ``_MAX_EVALS``.

    Each panel is ruled by :func:`_gk15`, with ``f`` called at its nodes
    in turn, inside the adaptive loop :func:`_integrate`.
    """
    return _integrate(functools.partial(_gk15, lambda ts: [f(t) for t in ts]), abs_tol)


def _integrate(rule, abs_tol: float) -> QuadratureResult:
    """The adaptive loop and the tails over a panel rule: ``rule(a, b)`` is
    the GK15 (value, error) on [a, b] in u-space, called once for each panel
    visited, in visit order, and counted as 15 evaluations."""
    abs_tol = _check_real(abs_tol, "abs_tol")

    evals = 0
    final_value = 0.0  # settled cells
    final_error = 0.0
    # the unsettled cells, and their errors apart, so that the builtins
    # sum(errs) and errs.index(max(errs)) scan them in C
    work: list[tuple[float, float, float]] = []  # (a, b, vk)
    errs: list[float] = []

    def best(value: float, error: float) -> QuadratureResult:
        """Everything integrated so far plus (value, error)."""
        return QuadratureResult(
            final_value + value + sum(c[2] for c in work),
            final_error + error + sum(errs),
            evals,
        )

    def panel(a: float, b: float) -> tuple[float, float]:
        """The rule on [a, b]; a non-finite value or error fails at once."""
        nonlocal evals
        vk, err = rule(a, b)
        evals += 15
        if not (math.isfinite(vk) and math.isfinite(err)):
            right = a >= 0.0  # t rounds to 1 there, so name 1 - t = sigma(-u)
            lo, hi = _logistic_nodes((-b, -a) if right else (a, b))[0]
            raise QuadratureError(
                f"integrand non-finite for {'1 - t' if right else 't'} in [{lo:.6g}, {hi:.6g}]",
                best=best(0.0, math.inf),
            )
        return vk, err

    # Seed the worklist with a handful of panels so the first refinement
    # pass already sees the broad structure of the transformed integrand.
    seeds = [_U_LEFT, -192.0, -92.0, -42.0, -17.0, -7.0, 0.0, 7.0, 14.0, _U_RIGHT]
    for a, b in zip(seeds[:-1], seeds[1:]):
        vk, err = panel(a, b)
        work.append((a, b, vk))
        errs.append(err)

    target = 0.3 * abs_tol
    exhausted = False

    def _noise_floor(vk: float) -> float:
        return 1e-16 * (1.0 + abs(vk))

    while True:
        pending_error = sum(errs)
        if final_error + pending_error <= target or not work:
            break
        worst = errs.index(max(errs))  # the first cell of largest error
        a, b, vk = work.pop(worst)
        err = errs.pop(worst)
        # A cell at most 1e-12 wide settles, so no bisection runs deeper than
        # 48 levels below the widest (200-wide) seed panel; only the
        # evaluation budget needs a cap.
        if err <= _noise_floor(vk) or (b - a) <= 1e-12:
            final_value += vk
            final_error += err
            continue
        if evals > _MAX_EVALS:
            exhausted = True
            final_value += vk
            final_error += err
            break
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            vk2, err2 = panel(lo, hi)
            if err2 <= _noise_floor(vk2) or (hi - lo) <= 1e-12:
                final_value += vk2
                final_error += err2
            else:
                work.append((lo, hi, vk2))
                errs.append(err2)

    # Settle the window, then add each tail as it completes.
    final_value += sum(c[2] for c in work)
    final_error += sum(errs)
    work.clear()
    errs.clear()
    for edge, direction in ((_U_LEFT, -1), (_U_RIGHT, +1)):
        tail, tail_error = _tail_sum(panel, best, edge, direction)
        final_value += tail
        final_error += tail_error
    result = QuadratureResult(final_value, final_error, evals)
    if exhausted:
        raise QuadratureError(
            f"evaluation budget exhausted ({evals} evaluations) with error "
            f"{final_error:.3e} above tolerance {abs_tol:.3e}",
            best=result,
        )
    return result


# ---------------------------------------------------------------------------
# Plug-in Monte Carlo estimators, sampled in t = F(X_(n))
# ---------------------------------------------------------------------------


def _draw_profile(dist, n: int, samples: int, seed: int, name: str):
    """The checked ``n``, ``samples`` draws of T = F(X_(n)) ~ Beta(n, 1), and
    the profile I(T); ``n`` is checked under the caller's ``name``.

    T = V^{1/n} with V uniform from ``default_rng(seed)``, nudged off the
    ends (v = 0, or V^{1/n} rounding up to 1.0) to the nearest interior
    double, where the profile is defined.
    """
    n = _check_index(n, name)
    samples, seed = _check_samples(samples), _check_seed(seed)
    v = np.random.default_rng(seed).random(samples)
    t = np.clip(v ** (1.0 / n), np.finfo(float).tiny, np.nextafter(1.0, 0.0))
    return n, t, dist_mod.density_quantile(dist, t)


def _mc_estimate(values, summand: str, samples: int, seed: int) -> McEstimate:
    """Mean and standard error of the summands ``values``.  A non-finite one
    (a profile that underflowed to 0, say) leaves no mean to estimate and is
    named.

    Both moments are taken of the summands over 2^e, with e the binary
    exponent of the largest |summand|, and multiplied back by 2^e.  Scaling
    by a power of 2 rounds nothing short of the subnormals, so the moments
    keep their bits, and neither the squares nor the sum can overflow where
    the answer is a double.
    """
    bad = samples - np.count_nonzero(np.isfinite(values))
    if bad:
        raise ValueError(f"Monte Carlo summand {summand} non-finite for {bad} of {samples} draws")
    e = math.frexp(max(values.max(), -values.min()))[1]
    scaled = np.ldexp(values, -e)
    est = math.ldexp(float(np.mean(scaled)), e)
    se = math.ldexp(float(np.std(scaled, ddof=1)), e) / math.sqrt(samples)
    return McEstimate(est, se, samples, seed)


def mc_entropy_max(dist, n: int, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> McEstimate:
    """Plug-in Monte Carlo estimate of the entropy of the sample maximum.

    Averages ``-ln f_max(X)`` over draws of the maximum, where
    ``f_max(X) = n T^{n-1} I(T)`` at ``T = F(X)`` is its exact density.  The
    standard error is the sample standard deviation of the summands divided
    by sqrt(samples).
    """
    n, t, profile = _draw_profile(dist, n, samples, seed, "mc_entropy_max")
    with np.errstate(divide="ignore"):
        summands = -(math.log(n) + (n - 1) * np.log(t) + np.log(profile))
    return _mc_estimate(summands, "-ln f_max(X)", samples, seed)


def mc_extropy_max(dist, n: int, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> McEstimate:
    """Plug-in Monte Carlo estimate of the extropy of the sample maximum.

    Same draws as :func:`mc_entropy_max`; the estimator averages
    ``-f_max(X)/2``.
    """
    n, t, profile = _draw_profile(dist, n, samples, seed, "mc_extropy_max")
    with np.errstate(over="ignore", invalid="ignore"):
        summands = -0.5 * n * t ** (n - 1) * profile
    return _mc_estimate(summands, "-f_max(X)/2", samples, seed)


# ---------------------------------------------------------------------------
# Concavity on a grid
# ---------------------------------------------------------------------------

# The slack of a concavity scan: a chord may exceed the function by this
# much, rounding in ln f or I, before a triple counts as a violation.
_CONCAVITY_TOL = 1e-9


def grid_concavity_check(g, grid) -> ConcavityReport:
    """Check concavity of ``g`` on a grid by second differences.

    ``g`` is called once, on the whole grid as a float64 array, and must
    return one value per grid point.  For every consecutive triple the value
    at the middle point must lie on or above the chord through the outer
    points, up to a slack of 1e-9, the report's ``tol``.  Returns a report
    listing the violating triples and the worst violation (positive means
    the chord exceeded the function, i.e. local convexity).
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 3:
        raise ValueError("grid must be one-dimensional with at least 3 points")
    if not np.all(np.diff(xs) > 0.0):
        raise ValueError("grid must be strictly increasing")
    values = np.asarray(g(xs), dtype=float)
    if values.shape != xs.shape:
        raise ValueError(
            f"g must return one value per grid point, got shape {values.shape} for {xs.size} points"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("function values must be finite on the grid")

    xl, xm, xr = xs[:-2], xs[1:-1], xs[2:]
    lam = (xr - xm) / (xr - xl)
    gap = (lam * values[:-2] + (1.0 - lam) * values[2:]) - values[1:-1]
    bad = gap > _CONCAVITY_TOL
    violations = tuple(zip(xl[bad].tolist(), xm[bad].tolist(), xr[bad].tolist(), gap[bad].tolist()))
    return ConcavityReport(
        concave=not violations,
        worst_violation=float(gap.max()),
        violations=violations,
        tol=_CONCAVITY_TOL,
    )
