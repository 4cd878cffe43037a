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
the geometric decay the transform produces.  Both tails are summed right
after the seed panels, before any bisection: where their error alone
exceeds the tolerance no refinement of the window can meet it, and the
integral declines at once.

The adaptive loop, :func:`_integrate`, reads each panel's GK15 (value,
error) by id off two lists that its walk fills, both halves of a panel at
once as it splits it.  The 23 fixed panels are read in bulk, as slices, in
this order: the seeds, the left tail cells and the left tail's sum, the
right tail cells and the right tail's sum.  One finite sum of their values
and errors clears them all, as a sum of doubles is finite only where each
one is; only where it is not (a non-finite panel, or a sum that overflowed)
is a group read panel by panel, to name its first non-finite panel with
the message, best estimate and evaluation count of a read one at a time.
The halves are read one at a time.  :func:`integrate_unit` walks the 9
seed panels and 14 tail cells alone, through the scalar rule
:func:`_gk15`, and reads no shared state.  The (member, n) cells of
``measures`` go through :func:`_cell`, on one bounded index of the panels
cells share, which also keeps each factor row's values there, so a cell
rules every held panel in one numpy pass of :func:`_gk15_rows`, with the
scalar rule's bits.  A panel whose value or error is not finite fails at
once with the panel's place in the message -- its t-interval, or its
(1 - t)-interval right of u = 0, where t rounds to 1 -- instead of
spending the evaluation budget on an error that can never shrink.

Monte Carlo
-----------
Sampling uses ``numpy.random.Generator`` seeded with an explicit integer so
that identical seeds give identical streams.  If a task ever needs several
independent streams, spawn children of ``np.random.SeedSequence(seed)`` in
task order rather than reusing consecutive integer seeds.  The estimators
sample in t, as the quadrature integrates in t, and in log space: T =
F(X_(n)) of a maximum of n i.i.d. draws is Beta(n, 1), V^{1/n} with V
uniform on [0, 1), so ln T = ln V / n, to within its rounding however
close T lies to 1, and ln(1 - T) = ln(-expm1(ln T)), taken only for the
families whose log profile reads it.  The density of the maximum at X_(n)
is ``n T^{n-1} I(T)``, so the parent enters only through the log profile
ln I of its family record (``log_density_quantile``), never through its
quantile, cdf, density or the linear profile: the summands are
-(ln n + (n - 1) ln T + ln I(T)) for H and -(n/2) exp((n - 1) ln T +
ln I(T)) for J, so H stays finite where I(T) under- or overflows.  A
summand that is not finite (an exp that overflowed, say) fails the
estimate with a ``ValueError`` naming the summand before any moment is
taken.  The moments are taken of the summands scaled by a power of 2, so
a mean or standard error that is a double does not overflow on the way.
One helper, :func:`_estimates`, takes every estimate from the draws, so
the public estimators and :func:`_mc_sweep` -- which draws ln V once per
seed and takes (ln T, ln(1 - T)) once per (n, seed) for every member, as
``verify``'s agreement group needs -- give the same bits.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import distributions as dist_mod
from .special import _check_index, _check_real, _from_checked

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


def _panel(a: float, b: float) -> tuple:
    """The GK15 panel [a, b] in u-space as (a, b, ts, ws): its 15 nodes t
    and weights dt/du, ordered as :func:`_gk15` sums them: c, c - x_0,
    c + x_0, ..., c - x_6, c + x_6.  Every t is checked here to lie in
    (0, 1), so integrands may take the nodes as already-validated
    probabilities."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    us = [c]
    for xgk in _XGK[:7]:
        x = h * xgk
        us += (c - x, c + x)
    ts, ws = _logistic_nodes(us)
    if not all(0.0 < t < 1.0 for t in ts):
        raise ValueError(f"GK15 panel [{a!r}, {b!r}] has a node outside (0, 1)")
    return a, b, ts, ws


def _gk15(g, panel: tuple) -> tuple[float, float]:
    """Gauss-Kronrod 7/15 rule for g's values times dt/du on a panel
    (a, b, ts, ws) of :func:`_panel`: (Kronrod value, |K15 - G7|).  ``g``
    maps the node tuple ts to the 15 integrand values in the same order."""
    a, b, ts, ws = panel
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
    """:func:`_gk15` on P panels at once, bit for bit, for an integrand that
    is a product w x v, for one or more integrands.

    Row i of the (P, 15) array ``dtdu`` holds panel i's dt/du at its nodes
    in the order :func:`_gk15` sums them, and ``half[i]`` its half-width
    0.5 (b - a); ``w`` and ``v`` hold the factors at those nodes, as a
    (P, 15) array or a stack of them, (k, P, 15) for k integrands.  Every
    element goes through the IEEE operations of :func:`_gk15` in the same
    order -- (w v) dt/du, the pair sums, then each rule summed left to right,
    as ``add.accumulate`` defines its running sum -- so each row has the
    scalar rule's bits on its panel, inf and nan included, and no
    floating-point warning is raised.  Returns the arrays, shaped as ``w``
    less its node axis, of Kronrod values and |K15 - G7|.
    """
    with np.errstate(all="ignore"):
        f = w * v * dtdu
        shape = f.shape[:-1]
        f = f.reshape(-1, 15).T
        terms = np.empty((8, f.shape[1]))
        terms[0] = f[0]
        np.add(f[1::2], f[2::2], out=terms[1:])  # the pairs f(c - x_j) + f(c + x_j)
        resk = np.add.accumulate(_KRONROD * terms)[-1].reshape(shape)
        resg = np.add.accumulate(_GAUSS * terms[0::2])[-1].reshape(shape)
        return half * resk, np.abs(half * (resk - resg))


def _wynn_limit(sums: list[float]) -> tuple[float, float]:
    """Wynn epsilon acceleration of a sequence of partial sums.

    Returns the best even-column estimate of the limit together with the
    spread of the last two even columns, used as an error proxy.  Each
    column is built in one pass over the one before, and the table stops at
    the first column with a zero or non-finite difference.
    """
    limit, before = sums[-1], None  # the last two even-column estimates
    prev = [0.0] * (len(sums) + 1)
    curr = sums
    even = True
    while len(curr) >= 2:
        nxt = []
        for i in range(1, len(curr)):
            diff = curr[i] - curr[i - 1]
            if diff == 0.0 or not math.isfinite(diff):
                break
            nxt.append(prev[i] + 1.0 / diff)
        if len(nxt) < len(curr) - 1:  # the column stopped short
            break
        prev, curr = curr, nxt
        even = not even
        if even and all(map(math.isfinite, curr)):
            limit, before = curr[-1], limit
    spread = abs(sums[-1] - sums[0]) if before is None else abs(limit - before)
    return limit, spread


def _tail_sum(cells: list[float], best) -> tuple[float, float]:
    """Extrapolated integral beyond an edge of the working window.

    Sums the (nearly geometric) sequence of the finite values ``cells`` of
    the unit-width tail cells, marching away from the window, with Wynn
    epsilon.  Raises QuadratureError, with ``best(value, error)`` as its
    estimate, when the cells fail to decay, which signals a non-integrable
    endpoint.
    """
    if not any(cells):
        return 0.0, 0.0
    first, last = abs(cells[0]), abs(cells[-1])
    if last >= 0.9999 * first and first > 1e-300:
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
    ratio = min(last / max(abs(cells[-2]), 1e-300), 0.999)
    cont = last * ratio / (1.0 - ratio)
    overshoot = abs(limit - partial[-1])
    if overshoot > 10.0 * (cont + 1e-300) + 1e-15:
        limit = partial[-1] + math.copysign(min(overshoot, cont), limit - partial[-1])
        spread = max(spread, cont)
    return limit, spread + 1e-16 * abs(limit)


# ---------------------------------------------------------------------------
# Walks and the panel index
#
# Every integral starts from the same 9 seed panels (ids 0-8) and ends on
# the same 14 tail cells (9-15 left, 16-22 right, outward), and walks a
# copy of its panels by id (a _Walk), whose splits get per-call ids past
# the held ones.  The cells' walks copy the index: the few dozen panels of
# the paper's grid, each with its bounds, width, nodes and halves, and the
# factor tables there.  A cell's new panels join it, by their bounds, once
# all the cell's integrals have returned, up to _PANEL_CAP panels and
# _TABLE_CAP tables.
# ---------------------------------------------------------------------------

_SEED_BOUNDS = (_U_LEFT, -192.0, -92.0, -42.0, -17.0, -7.0, 0.0, 7.0, 14.0, _U_RIGHT)
_SEEDS = range(9)
_LEFT_TAIL = range(9, 9 + _TAIL_CELLS)
_RIGHT_TAIL = range(9 + _TAIL_CELLS, 9 + 2 * _TAIL_CELLS)
_FIXED = tuple(
    [_panel(a, b) for a, b in zip(_SEED_BOUNDS[:-1], _SEED_BOUNDS[1:])]
    + [_panel(_U_LEFT - (m + 1), _U_LEFT - m) for m in range(_TAIL_CELLS)]
    + [_panel(_U_RIGHT + m, _U_RIGHT + (m + 1)) for m in range(_TAIL_CELLS)]
)
_FIXED_WIDTH = tuple(b - a for a, b, _, _ in _FIXED)
_PANEL_CAP = 256
_TABLE_CAP = 64


def _weights(panels) -> tuple[np.ndarray, np.ndarray]:
    """dt/du at the nodes of each of P panels (a, b, ts, ws) and its
    half-width 0.5 (b - a), as (P, 15) and (P,) arrays for the numpy pass."""
    return np.array([panel[3] for panel in panels]), np.array([0.5 * (b - a) for a, b, _, _ in panels])


def _factors(rows, panels) -> np.ndarray:
    """The k factor rows ``rows(ts)`` gives at the nodes ts of each of P
    panels (a, b, ts, ws), as a (k, P, 15) array."""
    return np.array(list(zip(*(rows(panel[2]) for panel in panels))))


class _Walk:
    """The panels one integral, or a cell's integrals in turn, walk by id:
    ``panels`` (a, b, ts, ws), ``width`` b - a and ``kids``, the halves' ids
    or None.  The halves of a split are listed after the panels held, as
    (a, b) alone, so that an integral run to its budget holds no nodes, and
    each split is recorded in ``splits`` by its bounds, as (panel, lower
    half, upper half).  ``rule`` rules each new pair onto the lists the
    integrals read."""

    __slots__ = ("panels", "width", "kids", "splits", "rule")

    def __init__(self, panels, width, kids, rule):
        self.panels = list(panels)
        self.width = list(width)
        self.kids = list(kids)
        self.splits: list[tuple] = []
        self.rule = rule

    def split(self, i: int) -> tuple[int, int]:
        """Per-call ids for the halves of panel ``i``, ruled at once, which
        later integrals on this walk find as its kids."""
        a, b = self.panels[i][:2]
        mid = 0.5 * (a + b)
        first = len(self.panels)
        halves = (a, mid), (mid, b)
        self.splits.append(((a, b), *halves))
        self.panels += halves
        self.width += (mid - a, b - mid)
        self.kids += (None, None)
        self.kids[i] = first, first + 1
        self.rule([_panel(lo, hi) for lo, hi in halves])
        return first, first + 1


class _PanelIndex:
    """The panels the cells share, by id (``ids`` maps (a, b) to it), with
    their :func:`_weights` and, in ``tables``, each row builder's factors
    there, extended when read.  ``cache_clear`` keeps the fixed panels
    alone.  A walk passes its splits by bounds alone, so one begun before
    ``cache_clear`` adds to the index after it as any other does.  Every
    read and write holds ``lock``, as cells on threads share it."""

    def __init__(self):
        self.lock = threading.Lock()
        self.cache_clear()

    def cache_clear(self) -> None:
        with self.lock:
            self.panels = list(_FIXED)
            self.width = list(_FIXED_WIDTH)
            self.kids: list = [None] * len(_FIXED)
            self.ids = {panel[:2]: i for i, panel in enumerate(_FIXED)}
            self.dtdu, self.half = _weights(_FIXED)
            self.tables: dict = {}

    def _table(self, key, rows) -> np.ndarray:
        """Table ``key`` of the builder ``rows``, extended to every held
        panel, as the table read last; the least recently read go past
        _TABLE_CAP."""
        table = self.tables.pop(key, None)
        have = 0 if table is None else table.shape[1]
        if have < len(self.panels):
            new = _factors(rows, self.panels[have:])
            table = new if table is None else np.concatenate((table, new), axis=1)
        while len(self.tables) >= _TABLE_CAP:
            del self.tables[next(iter(self.tables))]
        self.tables[key] = table
        return table

    def walk(self, rule, builders) -> tuple:
        """A walk of the index that rules new pairs by ``rule``, with dt/du,
        the half-widths and the table of each (key, rows) builder, over the
        panels held."""
        with self.lock:
            tables = [self._table(key, rows) for key, rows in builders]
            return _Walk(self.panels, self.width, self.kids, rule), self.dtdu, self.half, tables

    def add(self, walk: _Walk) -> None:
        """List each half of ``walk``'s splits that the index does not hold,
        in split order, while it holds fewer than _PANEL_CAP, and point each
        held parent at its halves once both are held, all by bounds."""
        if not walk.splits:
            return
        with self.lock:
            new = []
            for parent, *halves in walk.splits:
                for bounds in halves:
                    if bounds not in self.ids and len(self.panels) < _PANEL_CAP:
                        self.ids[bounds] = len(self.panels)
                        new.append(_panel(*bounds))
                        self.panels.append(new[-1])
                        self.width.append(bounds[1] - bounds[0])
                        self.kids.append(None)
                pair = tuple(map(self.ids.get, halves))
                if parent in self.ids and None not in pair:
                    self.kids[self.ids[parent]] = pair
            if new:
                dtdu, half = _weights(new)
                self.dtdu = np.concatenate((self.dtdu, dtdu))
                self.half = np.concatenate((self.half, half))


_index = _PanelIndex()


def _cell(builders, rows: slice, abs_tol: float):
    """A generator of the integrals over (0, 1) of w x v, for w and v the
    rows ``rows`` of the two ``builders``, (key, rows(ts)) each, in order,
    on one walk of the index: one numpy pass rules the held panels for all
    of them, and another each pair split anew.  The first that fails
    raises; the cell's panels join the index once the last has returned."""
    values, errors = [], []  # a list of each, by panel id, per integral

    def rule(panels):
        w, v = (_factors(build, panels)[rows] for _, build in builders)
        for vals, errs, vk, err in zip(values, errors, *_gk15_rows(w, v, *_weights(panels))):
            vals += vk.tolist()
            errs += err.tolist()

    walk, dtdu, half, (w, v) = _index.walk(rule, builders)
    vk, err = _gk15_rows(w[rows], v[rows], dtdu, half)
    values += vk.tolist()
    errors += err.tolist()
    for vals, errs in zip(values, errors):
        yield _integrate(abs_tol, walk, vals, errs)
    _index.add(walk)


def integrate_unit(f, abs_tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate ``f`` over the open interval (0, 1) to absolute tolerance.

    Parameters
    ----------
    f : callable
        Real integrand, finite on the open interval, called with one Python
        float t at a time.  Integrable endpoint singularities of the types
        ln t, ln(1 - t), ln(-ln t) and t**-alpha (alpha < 1) are supported.
        Each t is a panel node, checked to lie in (0, 1) when its panel was
        made.
    abs_tol : float
        Target absolute tolerance.  Both tails are summed right after the
        seed panels, and where their error alone exceeds ``abs_tol`` the
        call declines at once with a :class:`QuadratureError` whose best
        estimate is the seeds plus both tails.  Otherwise the window is
        refined until its error is at most 0.3 ``abs_tol``, and a
        :class:`QuadratureError` with the best estimate -- the window so far
        plus both tails -- is raised once the evaluations exceed
        ``_MAX_EVALS``.  The returned ``error_estimate`` is the window's
        error plus the tails', an honest bound held to ``abs_tol`` on the
        catalog grid; tails whose error lies between 0.7 and 1 ``abs_tol``
        can take it past ``abs_tol`` by up to 30%.

    ``f`` is called at the nodes of the seed panels and tail cells, then
    of the halves in the order :func:`_integrate` splits them, each panel
    ruled by :func:`_gk15`.  The call reads and leaves no shared state.
    """
    abs_tol = _check_real(abs_tol, "abs_tol")
    values, errors = [], []

    def rule(panels):
        for panel in panels:
            vk, err = _gk15(lambda ts: map(f, ts), panel)
            values.append(vk)
            errors.append(err)

    rule(_FIXED)
    return _integrate(abs_tol, _Walk(_FIXED, _FIXED_WIDTH, [None] * len(_FIXED), rule), values, errors)


def _integrate(abs_tol: float, walk: _Walk, values: list, errors: list) -> QuadratureResult:
    """The adaptive loop and the tails over the GK15 (value, error) of each
    panel visited, read off ``values`` and ``errors`` by its id in ``walk``,
    whose splits rule onto them.  Each panel visited counts as 15
    evaluations; ``abs_tol`` comes checked.

    The fixed panels are read in bulk, in this order: the seeds, the left
    tail cells and the left tail's sum, the right tail cells and the right
    tail's sum; then the halves, one at a time.  One finite sum clears the
    fixed panels at once; a group of them is read panel by panel only where
    it does not, to name its first non-finite panel, with the message, best
    estimate and evaluation count of a read one at a time."""
    width, kids, split = walk.width, walk.kids, walk.split
    isfinite = math.isfinite

    evals = 0
    final_value = 0.0  # settled cells
    final_error = 0.0
    # the unsettled cells by id, with their values and errors apart, so
    # that the builtins sum(errs) and errs.index(max(errs)) scan them in C;
    # the seed panels first, so the first refinement pass already sees the
    # broad structure of the transformed integrand
    fixed_values, fixed_errors = values[: len(_FIXED)], errors[: len(_FIXED)]
    work: list[int] = [*_SEEDS]
    vals: list[float] = fixed_values[: _SEEDS.stop]
    errs: list[float] = fixed_errors[: _SEEDS.stop]
    # a sum of doubles is finite only where each one is, so one finite sum
    # clears all the fixed panels at once; a sum that overflowed, none
    finite = isfinite(sum(fixed_values) + sum(fixed_errors))

    def best(value: float, error: float) -> QuadratureResult:
        """Everything integrated so far plus (value, error)."""
        return _from_checked(
            QuadratureResult,
            value=final_value + value + sum(vals),
            error_estimate=final_error + error + sum(errs),
            evaluations=evals,
        )

    def fail(i: int):
        """Panel i's value or error is not finite: fail at once, naming it."""
        a, b = walk.panels[i][:2]
        right = a >= 0.0  # t rounds to 1 there, so name 1 - t = sigma(-u)
        lo, hi = _logistic_nodes((-b, -a) if right else (a, b))[0]
        raise QuadratureError(
            f"integrand non-finite for {'1 - t' if right else 't'} in [{lo:.6g}, {hi:.6g}]",
            best=best(0.0, math.inf),
        )

    def read(cells: range) -> list[float]:
        """The values of the fixed panels ``cells``, once each is known
        finite; else fail at the first panel that is not, as a read one at
        a time would, holding only the seeds before it."""
        nonlocal evals
        if not finite:
            for i in cells:
                if not (isfinite(fixed_values[i]) and isfinite(fixed_errors[i])):
                    evals = 15 * (i + 1)  # the fixed ids start at 0
                    del vals[i:], errs[i:]
                    fail(i)
        evals = 15 * cells.stop
        return fixed_values[cells.start : cells.stop]

    read(_SEEDS)
    # Sum both tails before any refinement: no refinement of the window can
    # shrink their error, so where it alone exceeds the tolerance, decline.
    tails = _tail_sum(read(_LEFT_TAIL), best), _tail_sum(read(_RIGHT_TAIL), best)
    tail_error = tails[0][1] + tails[1][1]
    if tail_error > abs_tol:
        raise QuadratureError(
            f"tail error {tail_error:.3e} alone exceeds tolerance {abs_tol:.3e}",
            best=best(tails[0][0] + tails[1][0], tail_error),
        )

    target = 0.3 * abs_tol
    exhausted = False
    while True:
        if final_error + sum(errs) <= target or not work:
            break
        worst = errs.index(max(errs))  # the first cell of largest error
        i = work.pop(worst)
        vk = vals.pop(worst)
        err = errs.pop(worst)
        # A cell at most 1e-12 wide settles, so no bisection runs deeper than
        # 48 levels below the widest (200-wide) seed panel; only the
        # evaluation budget needs a cap.  1e-16 (1 + |vk|) is the noise floor.
        if err <= 1e-16 * (1.0 + abs(vk)) or width[i] <= 1e-12:
            final_value += vk
            final_error += err
            continue
        if evals > _MAX_EVALS:
            exhausted = True
            final_value += vk
            final_error += err
            break
        for j in kids[i] or split(i):
            vk = values[j]
            err = errors[j]
            evals += 15
            if not (isfinite(vk) and isfinite(err)):
                fail(j)
            if err <= 1e-16 * (1.0 + abs(vk)) or width[j] <= 1e-12:
                final_value += vk
                final_error += err
            else:
                work.append(j)
                vals.append(vk)
                errs.append(err)

    # Settle the window, then add each tail.
    final_value += sum(vals)
    final_error += sum(errs)
    for tail, error in tails:
        final_value += tail
        final_error += error
    result = _from_checked(QuadratureResult, value=final_value, error_estimate=final_error, evaluations=evals)
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


# ln T of a draw is kept in [ln of the smallest normal double, minus the
# smallest subnormal]: v = 0 gives ln V = -inf, and ln V / n rounds to 0
# for n past about 2e307, where ln(1 - T) would be -inf.
_LOG_T_RANGE = (math.log(sys.float_info.min), -math.ulp(0.0))


def _log_uniforms(samples: int, seed: int) -> np.ndarray:
    """ln V of ``samples`` draws of V uniform on [0, 1) from
    ``default_rng(seed)``, for a sample count and a seed their rules have
    checked."""
    with np.errstate(divide="ignore"):  # v = 0
        return np.log(np.random.default_rng(seed).random(samples))


def _levels(log_v: np.ndarray, n: int, log1m: bool) -> tuple:
    """(ln T, ln(1 - T)) of T = V^{1/n} ~ Beta(n, 1): ln T = ln V / n,
    nudged into ``_LOG_T_RANGE``, and ln(1 - T) = ln(-expm1(ln T)) where
    ``log1m`` asks for it, else None."""
    log_t = np.clip(log_v / n, *_LOG_T_RANGE)
    return log_t, np.log(-np.expm1(log_t)) if log1m else None


def _mc_estimate(values, summand: str, samples: int, seed: int) -> McEstimate:
    """Mean and standard error of the summands ``values``.  A non-finite one
    (an exp(ln f_max) that overflowed, say) leaves no mean to estimate and
    is named.

    Both moments are taken of the summands over 2^e, with e the binary
    exponent of the largest |summand|, and multiplied back by 2^e.  Scaling
    by a power of 2 rounds nothing short of the subnormals, so the moments
    keep their bits, and neither the squares nor the sum can overflow where
    the answer is a double.  They are ``np.mean`` and ``np.std(ddof=1)``
    spelled out, with their bits: one pairwise sum for the mean, and one of
    the squared deviations from it.
    """
    hi, lo = values.max(), values.min()  # nan wherever a summand is nan
    if not (math.isfinite(hi) and math.isfinite(lo)):
        bad = samples - np.count_nonzero(np.isfinite(values))
        raise ValueError(f"Monte Carlo summand {summand} non-finite for {bad} of {samples} draws")
    e = math.frexp(max(hi, -lo))[1]
    scaled = np.ldexp(values, -e)
    mean = np.add.reduce(scaled) / samples
    deviations = np.subtract(scaled, mean, out=scaled)
    var = np.add.reduce(np.square(deviations, out=deviations)) / (samples - 1)
    se = math.ldexp(math.sqrt(var), e) / math.sqrt(samples)
    return McEstimate(math.ldexp(float(mean), e), se, samples, seed)


def _estimates(dist, n: int, log_t, log1m_t, samples: int, seed: int, measures: str) -> list[McEstimate]:
    """The estimates of ``measures`` ("H", "J" or "HJ", in that order) from
    the draws (ln T, ln(1 - T)) of :func:`_levels`, through the member's log
    profile: with ln(f_max(X)/n) = (n - 1) ln T + ln I(T), the mean of
    -ln f_max(X) for H and of -f_max(X)/2 for J."""
    out = []
    with np.errstate(over="ignore"):  # left to the finiteness check
        log_f = (n - 1) * log_t + dist_mod.REGISTRY[dist.family].log_density_quantile(dist, log_t, log1m_t)
        if "H" in measures:
            out.append(_mc_estimate(-math.log(n) - log_f, "-ln f_max(X)", samples, seed))
        if "J" in measures:
            out.append(_mc_estimate((-0.5 * n) * np.exp(log_f), "-f_max(X)/2", samples, seed))
    return out


def _mc(dist, n: int, samples: int, seed: int, name: str, measures: str) -> list[McEstimate]:
    """:func:`_estimates` of one member from its own draw; ``n`` is checked
    under the caller's ``name``."""
    n = _check_index(n, name)
    samples, seed = _check_samples(samples), _check_seed(seed)
    log1m = dist_mod.REGISTRY[dist.family].reads_log1m_t
    return _estimates(dist, n, *_levels(_log_uniforms(samples, seed), n, log1m), samples, seed, measures)


def _mc_sweep(members, ns, seeds, samples: int, name: str) -> list:
    """Both estimates of every (member, n, seed), each with the bits of
    :func:`mc_entropy_max` and :func:`mc_extropy_max`, as
    ``pairs[k][i][s]`` for ``members[k]``, ``ns[i]`` and ``seeds[s]``.
    ln V is drawn once per seed and (ln T, ln(1 - T)) taken once per
    (n, seed), shared by every member; ln(1 - T) only where some member's
    profile reads it.  ``members`` and ``ns`` are sequences; each n is
    checked under the caller's ``name``."""
    ns = [_check_index(n, name) for n in ns]
    samples = _check_samples(samples)
    log1m = any(dist_mod.REGISTRY[m.family].reads_log1m_t for m in members)
    pairs = [[[] for _ in ns] for _ in members]
    for seed in seeds:
        seed = _check_seed(seed)
        log_v = _log_uniforms(samples, seed)
        for i, n in enumerate(ns):
            log_t, log1m_t = _levels(log_v, n, log1m)
            for k, member in enumerate(members):
                pairs[k][i].append(tuple(_estimates(member, n, log_t, log1m_t, samples, seed, "HJ")))
    return pairs


def mc_entropy_max(dist, n: int, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> McEstimate:
    """Plug-in Monte Carlo estimate of the entropy of the sample maximum.

    Averages ``-ln f_max(X)`` over draws of the maximum, where
    ``f_max(X) = n T^{n-1} I(T)`` at ``T = F(X)`` is its exact density,
    taken in log space.  The standard error is the sample standard
    deviation of the summands divided by sqrt(samples).
    """
    return _mc(dist, n, samples, seed, "mc_entropy_max", "H")[0]


def mc_extropy_max(dist, n: int, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> McEstimate:
    """Plug-in Monte Carlo estimate of the extropy of the sample maximum.

    Same draws as :func:`mc_entropy_max`; the estimator averages
    ``-f_max(X)/2``.
    """
    return _mc(dist, n, samples, seed, "mc_extropy_max", "J")[0]


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
