"""Deterministic numerics: quadrature on (0, 1), sampling of maxima, and
grid concavity checks.

Quadrature
----------
:func:`integrate_unit` integrates a black-box integrand over the open unit
interval.  The variable change ``t = (1 + tanh(u/2))/2`` (the logistic map)
sends both endpoints to infinity, which turns the admissible endpoint
singularities -- ``ln t``, ``ln(1 - t)``, ``ln(-ln t)`` and ``t**-alpha``
with ``alpha < 1`` -- into smooth, exponentially decaying profiles in ``u``.
The transformed integrand is handled by adaptive bisection with a fixed
Gauss-Kronrod 7/15 kernel (worst cell split first, depth capped at 60, with
an explicit failure carrying the best estimate instead of silent
truncation).  The residual mass beyond the working window is summed by
Wynn epsilon extrapolation of unit-width tail cells, which is exact for the
geometric decay the transform produces.

Monte Carlo
-----------
Sampling uses ``numpy.random.Generator`` seeded with an explicit integer so
that identical seeds give identical streams.  If a task ever needs several
independent streams, spawn children of ``np.random.SeedSequence(seed)`` in
task order rather than reusing consecutive integer seeds.  A maximum of n
i.i.d. draws is sampled in one shot through the quantile transform
``F^{-1}(V^{1/n})`` with ``V`` uniform on (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist_mod
from .special import _check_index

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "McEstimate",
    "ConcavityReport",
    "integrate_unit",
    "maximum_from_uniform",
    "mc_entropy_max",
    "mc_extropy_max",
    "grid_concavity_check",
]

# Defaults shared by every quadrature and Monte Carlo entry point and the CLI.
DEFAULT_QUAD_TOL = 1e-10
DEFAULT_SAMPLES = 100_000
MIN_SAMPLES = 100


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
    violations: list = field(default_factory=list)
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
_MAX_DEPTH = 60  # bisection depth cap


def _sigma(u: float) -> float:
    """Stable logistic map u -> t in (0, 1)."""
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    z = math.exp(u)
    return z / (1.0 + z)


def _sigma_weight(u: float) -> float:
    """dt/du = sigma(u) * sigma(-u), computed without cancellation."""
    z = math.exp(-abs(u))
    s = 1.0 + z
    return z / (s * s)


def _gk15(g, a: float, b: float) -> tuple[float, float]:
    """Gauss-Kronrod 7/15 rule on [a, b]: (Kronrod value, |K15 - G7|)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = g(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        x = h * _XGK[j]
        fsum = g(c - x) + g(c + x)
        resk += _WGK[j] * fsum
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * fsum
    return h * resk, abs(h * (resk - resg))


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


def _tail_sum(g, edge: float, direction: int) -> tuple[float, float, int]:
    """Extrapolated integral of g beyond `edge` toward +/- infinity.

    Integrates unit-width cells marching away from the working window and
    sums the (nearly geometric) sequence with Wynn epsilon.  Raises
    QuadratureError when the cells fail to decay, which signals a
    non-integrable endpoint.
    """
    cells = []
    evals = 0
    for m in range(_TAIL_CELLS):
        a = edge + direction * m
        b = edge + direction * (m + 1)
        lo, hi = (a, b) if direction > 0 else (b, a)
        vk, _ = _gk15(g, lo, hi)
        cells.append(vk)
        evals += 15
    scale = max(abs(c) for c in cells)
    if scale == 0.0:
        return 0.0, 0.0, evals
    if abs(cells[-1]) >= 0.9999 * abs(cells[0]) and abs(cells[0]) > 1e-300:
        partial = math.fsum(cells)
        raise QuadratureError(
            "endpoint contribution does not decay; the integrand looks "
            "non-integrable at the boundary",
            best=QuadratureResult(partial, abs(partial), evals),
        )
    partial = list(np.cumsum(cells))
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
    return limit, err, evals


def integrate_unit(f, abs_tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate ``f`` over the open interval (0, 1) to absolute tolerance.

    Parameters
    ----------
    f : callable
        Real integrand, finite on the open interval.  Integrable endpoint
        singularities of the types ln t, ln(1 - t), ln(-ln t) and t**-alpha
        (alpha < 1) are supported.
    abs_tol : float
        Target absolute tolerance; the returned ``error_estimate`` is an
        honest bound and may exceed ``abs_tol`` only together with an
        explicit :class:`QuadratureError`, raised with the best estimate so
        far once a cell reaches depth ``_MAX_DEPTH`` or the evaluations
        exceed ``_MAX_EVALS``.
    """
    if not (abs_tol > 0.0) or not math.isfinite(abs_tol):
        raise ValueError(f"abs_tol must be a positive finite number, got {abs_tol!r}")

    def g(u: float) -> float:
        return f(_sigma(u)) * _sigma_weight(u)

    evals = 0

    # Seed the worklist with a handful of panels so the first refinement
    # pass already sees the broad structure of the transformed integrand.
    seeds = [-392.0, -192.0, -92.0, -42.0, -17.0, -7.0, 0.0, 7.0, 14.0, 22.0]
    work: list[tuple[float, float, float, float, int]] = []  # (a, b, vk, err, depth)
    for a, b in zip(seeds[:-1], seeds[1:]):
        vk, err = _gk15(g, a, b)
        evals += 15
        work.append((a, b, vk, err, 0))

    target = 0.3 * abs_tol
    final_value = 0.0
    final_error = 0.0

    def _noise_floor(vk: float) -> float:
        return 1e-16 * (1.0 + abs(vk))

    while True:
        pending_error = sum(c[3] for c in work)
        if final_error + pending_error <= target or not work:
            break
        worst = max(range(len(work)), key=lambda i: work[i][3])
        a, b, vk, err, depth = work.pop(worst)
        if err <= _noise_floor(vk) or (b - a) <= 1e-12:
            final_value += vk
            final_error += err
            continue
        if depth >= _MAX_DEPTH:
            best_value = final_value + vk + sum(c[2] for c in work)
            best_error = final_error + err + sum(c[3] for c in work)
            raise QuadratureError(
                f"maximum bisection depth {_MAX_DEPTH} reached with error "
                f"{best_error:.3e} above tolerance {abs_tol:.3e}",
                best=QuadratureResult(best_value, best_error, evals),
            )
        if evals > _MAX_EVALS:
            best_value = final_value + vk + sum(c[2] for c in work)
            best_error = final_error + err + sum(c[3] for c in work)
            raise QuadratureError(
                f"evaluation budget exhausted ({evals} evaluations) with "
                f"error {best_error:.3e} above tolerance {abs_tol:.3e}",
                best=QuadratureResult(best_value, best_error, evals),
            )
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            vk2, err2 = _gk15(g, lo, hi)
            evals += 15
            if err2 <= _noise_floor(vk2) or (hi - lo) <= 1e-12:
                final_value += vk2
                final_error += err2
            else:
                work.append((lo, hi, vk2, err2, depth + 1))

    value = final_value + sum(c[2] for c in work)
    error = final_error + sum(c[3] for c in work)

    try:
        tail_left, err_left, ev_left = _tail_sum(g, _U_LEFT, -1)
        tail_right, err_right, ev_right = _tail_sum(g, _U_RIGHT, +1)
    except QuadratureError as exc:
        # fold the window integral into the best estimate before re-raising
        tail = exc.best
        best_value = value + (tail.value if tail is not None else 0.0)
        best_error = error + (tail.error_estimate if tail is not None else 0.0)
        tail_evals = tail.evaluations if tail is not None else 0
        raise QuadratureError(
            str(exc), best=QuadratureResult(best_value, best_error, evals + tail_evals)
        ) from None
    evals += ev_left + ev_right

    return QuadratureResult(
        value + tail_left + tail_right,
        error + err_left + err_right,
        evals,
    )


# ---------------------------------------------------------------------------
# Sampling of maxima and plug-in Monte Carlo estimators
# ---------------------------------------------------------------------------


def maximum_from_uniform(dist, n: int, v: float) -> float:
    """Deterministic core of maximum sampling: F^{-1}(v^{1/n}).

    If V is uniform on (0, 1) then F^{-1}(V^{1/n}) has the distribution of
    the largest of n i.i.d. draws from the parent.
    """
    n = _check_index(n, "maximum_from_uniform")
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"v must lie in [0, 1], got {v!r}")
    t = v ** (1.0 / n)
    # The quantile is defined on the open interval; nudge boundary hits
    # (v = 0, or v**(1/n) rounding up to 1.0) to the nearest interior double.
    t = min(max(t, np.finfo(float).tiny), np.nextafter(1.0, 0.0))
    return dist_mod.quantile(dist, t)


def _draw_maxima(dist, n: int, samples: int, rng) -> np.ndarray:
    v = rng.random(samples)
    t = np.clip(v ** (1.0 / n), np.finfo(float).tiny, np.nextafter(1.0, 0.0))
    return dist_mod.quantile(dist, t)


def _check_mc_args(samples, seed) -> tuple[int, int]:
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    samples = int(samples)
    if samples < MIN_SAMPLES:
        raise ValueError(f"at least {MIN_SAMPLES} samples are required, got {samples}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return samples, int(seed)


def mc_entropy_max(dist, n: int, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> McEstimate:
    """Plug-in Monte Carlo estimate of the entropy of the sample maximum.

    Draws maxima through the quantile transform and averages
    ``-ln f_max(X)`` where ``f_max = n F^{n-1} f`` is the exact density of
    the maximum.  The standard error is the sample standard deviation of
    the log-density values divided by sqrt(samples).
    """
    n = _check_index(n, "mc_entropy_max")
    samples, seed = _check_mc_args(samples, seed)
    rng = np.random.default_rng(seed)
    x = _draw_maxima(dist, n, samples, rng)
    log_density = math.log(n) + dist_mod.log_pdf(dist, x)
    if n > 1:
        log_density = log_density + (n - 1) * np.log(dist_mod.cdf(dist, x))
    values = -log_density
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(samples))
    return McEstimate(est, se, samples, seed)


def mc_extropy_max(dist, n: int, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> McEstimate:
    """Plug-in Monte Carlo estimate of the extropy of the sample maximum.

    Same sampling scheme as :func:`mc_entropy_max`; the estimator averages
    ``-f_max(X)/2`` over the draws.
    """
    n = _check_index(n, "mc_extropy_max")
    samples, seed = _check_mc_args(samples, seed)
    rng = np.random.default_rng(seed)
    x = _draw_maxima(dist, n, samples, rng)
    density = n * np.exp(dist_mod.log_pdf(dist, x))
    if n > 1:
        density = density * dist_mod.cdf(dist, x) ** (n - 1)
    values = -0.5 * density
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(samples))
    return McEstimate(est, se, samples, seed)


# ---------------------------------------------------------------------------
# Concavity on a grid
# ---------------------------------------------------------------------------


def grid_concavity_check(g, grid, tol: float = 1e-9) -> ConcavityReport:
    """Check concavity of ``g`` on a grid by second differences.

    For every consecutive triple the value at the middle point must lie on
    or above the chord through the outer points, up to ``tol``.  Returns a
    report listing the violating triples and the worst violation (positive
    means the chord exceeded the function, i.e. local convexity).
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 3:
        raise ValueError("grid must be one-dimensional with at least 3 points")
    if not np.all(np.diff(xs) > 0.0):
        raise ValueError("grid must be strictly increasing")
    values = np.array([float(g(x)) for x in xs])
    if not np.all(np.isfinite(values)):
        raise ValueError("function values must be finite on the grid")

    violations = []
    worst = -math.inf
    for i in range(1, xs.size - 1):
        xl, xm, xr = xs[i - 1], xs[i], xs[i + 1]
        lam = (xr - xm) / (xr - xl)
        chord = lam * values[i - 1] + (1.0 - lam) * values[i + 1]
        gap = chord - values[i]
        worst = max(worst, gap)
        if gap > tol:
            violations.append((float(xl), float(xm), float(xr), float(gap)))
    return ConcavityReport(
        concave=not violations,
        worst_violation=float(worst),
        violations=tuple(violations),
        tol=tol,
    )
