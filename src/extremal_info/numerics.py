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
geometric decay the transform produces.  The 15 nodes of a panel depend
only on its u-interval, so they are computed and range-checked once per
distinct panel and kept in a bounded cache.  The kernel,
:func:`integrate_panels`, hands the integrand one panel's node tuple at a
time, each t already known to lie in (0, 1), and takes the 15 values back,
so an integrand can cache per-panel factors on that tuple;
:func:`integrate_unit` is the same kernel over a point integrand called
once per node.  A panel whose value or error is not finite (the integrand
overflowed or returned nan) fails at once with the panel's t-interval in
the message, instead of spending the evaluation budget on an error that
can never shrink.

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

import functools
import itertools
import math
import operator
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
    "integrate_panels",
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
        explicit :class:`QuadratureError`, raised with the best estimate so
        far once a cell reaches depth ``_MAX_DEPTH`` or the evaluations
        exceed ``_MAX_EVALS``.

    This is :func:`integrate_panels` with ``f`` called at each node of a
    panel in turn, so both give the same bits for the same values.
    """
    return integrate_panels(lambda ts: [f(t) for t in ts], abs_tol)


def integrate_panels(g, abs_tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate over (0, 1) an integrand given one GK15 panel at a time.

    ``g`` receives the tuple of a panel's 15 nodes t, each already checked to
    lie in (0, 1), and returns the 15 integrand values in the same order, as
    any iterable.  A panel recurs with an equal node tuple in every integral
    that visits it, so ``g`` may key its own caches on the tuple: an
    integrand whose factors depend on fewer parameters than the integral (a
    profile on the member, a weight on n) then computes each factor once per
    panel and shares it across integrals.  Everything else -- the adaptive
    loop, the tails, the fail-fast check and the meaning of ``abs_tol`` --
    is as described in :func:`integrate_unit`, which is this function with
    a point integrand.
    """
    if not (abs_tol > 0.0) or not math.isfinite(abs_tol):
        raise ValueError(f"abs_tol must be a positive finite number, got {abs_tol!r}")

    evals = 0
    final_value = 0.0  # settled cells
    final_error = 0.0
    work: list[tuple[float, float, float, float, int]] = []  # (a, b, vk, err, depth)

    def best(value: float, error: float) -> QuadratureResult:
        """Everything integrated so far plus (value, error)."""
        return QuadratureResult(
            final_value + value + sum(c[2] for c in work),
            final_error + error + sum(c[3] for c in work),
            evals,
        )

    def panel(a: float, b: float) -> tuple[float, float]:
        """GK15 on [a, b]; a non-finite value or error fails at once."""
        nonlocal evals
        vk, err = _gk15(g, a, b)
        evals += 15
        if not (math.isfinite(vk) and math.isfinite(err)):
            t_a, t_b = _logistic_nodes((a, b))[0]
            raise QuadratureError(
                f"integrand non-finite for t in [{t_a:.6g}, {t_b:.6g}]",
                best=best(0.0, math.inf),
            )
        return vk, err

    # Seed the worklist with a handful of panels so the first refinement
    # pass already sees the broad structure of the transformed integrand.
    seeds = [-392.0, -192.0, -92.0, -42.0, -17.0, -7.0, 0.0, 7.0, 14.0, 22.0]
    for a, b in zip(seeds[:-1], seeds[1:]):
        vk, err = panel(a, b)
        work.append((a, b, vk, err, 0))

    target = 0.3 * abs_tol

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
        if depth >= _MAX_DEPTH or evals > _MAX_EVALS:
            failed = best(vk, err)
            reason = (
                f"maximum bisection depth {_MAX_DEPTH} reached"
                if depth >= _MAX_DEPTH
                else f"evaluation budget exhausted ({evals} evaluations)"
            )
            raise QuadratureError(
                f"{reason} with error {failed.error_estimate:.3e} above "
                f"tolerance {abs_tol:.3e}",
                best=failed,
            )
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            vk2, err2 = panel(lo, hi)
            if err2 <= _noise_floor(vk2) or (hi - lo) <= 1e-12:
                final_value += vk2
                final_error += err2
            else:
                work.append((lo, hi, vk2, err2, depth + 1))

    # Settle the window, then add each tail as it completes.
    final_value += sum(c[2] for c in work)
    final_error += sum(c[3] for c in work)
    work.clear()
    for edge, direction in ((_U_LEFT, -1), (_U_RIGHT, +1)):
        tail, tail_error = _tail_sum(panel, best, edge, direction)
        final_value += tail
        final_error += tail_error
    return QuadratureResult(final_value, final_error, evals)


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
