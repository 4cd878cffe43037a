"""Special functions and closed-form log integrals used throughout the package.

Everything here is deterministic: the Euler-Mascheroni constant, harmonic
numbers, the partial sums of sum(1/(k*2^k)), the beta function, and a
small catalogue of integrals of the form
``integral of a power times a logarithmic factor`` that have elementary
closed forms.  These closed forms serve as independent oracles for the
adaptive quadrature in :mod:`extremal_info.numerics` and as building blocks
for the entropy/extropy formulas in :mod:`extremal_info.measures`.

Harmonic numbers up to n = 10^4 and the partial sums of sum(1/(k*2^k)) are
read from module-level tuples of prefix sums, built once at import by exact
integer summation: each double term is scaled to an exact integer, the
integers are accumulated, and each prefix is divided back by Python's
correctly rounded int / int.  Correct rounding is unique, so every entry is
bit-identical to ``math.fsum`` over the same terms, and a lookup is O(1).

``harmonic`` and ``beta_function`` (in its first argument) also take an
array and give each element the bits of the scalar call, as the closed
forms of :mod:`extremal_info.distributions` do.  Where a scalar call goes
through libm (``math.log``, ``math.exp``, float ``**``), an array call
applies the same libm function element by element (``_math``):
numpy's SIMD loops for these functions differ from libm in the last bit
on a few percent of inputs.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, repeat
from types import SimpleNamespace

import numpy as np
from scipy import special as _sc

__all__ = [
    "EULER_GAMMA",
    "harmonic",
    "half_geometric_sum",
    "beta_function",
    "beta_n1_log_moment",
    "log_power_integral",
    "LOG_POWER_INTEGRAL_KINDS",
]

# Euler-Mascheroni constant, gamma = lim (H_n - ln n).
EULER_GAMMA = float(np.euler_gamma)

# Exact summation is used below this size; the digamma identity
# H_n = psi(n + 1) + gamma takes over above it.  The two branches agree to
# ~1e-15 at the switch point (covered by tests).
_HARMONIC_EXACT_MAX = 10_000

# The largest n whose square fits in int64.  A grid of n is held as int64 up
# to here, so that integer arithmetic on n in the closed forms (n * n,
# 2 * n - 1) is exact, and as an object array of Python ints beyond.
_INT64_N_MAX = math.isqrt(np.iinfo(np.int64).max)

# 1/(k*2^k) underflows double precision long before this cap, so partial
# sums are numerically saturated past it.
_HALF_GEOMETRIC_CAP = 1_100


def _prefix_sums(terms, shift: int) -> tuple[float, ...]:
    """Correctly rounded prefix sums of the double ``terms``, from the empty
    sum on: entry m equals ``math.fsum`` over the first m terms bit for bit.

    Each term p/q (q a power of two, at most 2^shift) is scaled to the exact
    integer p * 2^shift / q; int / int then rounds each exact prefix once."""
    scale = 1 << shift
    scaled = (p * scale // q for p, q in map(float.as_integer_ratio, terms))
    return (0.0, *(s / scale for s in accumulate(scaled)))


# no 1/k with k <= 10^4 has a bit below 2^-67
_HARMONIC_TABLE = _prefix_sums((1.0 / k for k in range(1, _HARMONIC_EXACT_MAX + 1)), 80)
# no double has a bit below 2^-1074; ldexp underflows gracefully to 0.0
# where 2.0**k would overflow
_HALF_GEOMETRIC_TABLE = _prefix_sums(
    (math.ldexp(1.0 / k, -k) for k in range(1, _HALF_GEOMETRIC_CAP + 1)), 1074
)
# the harmonic table as a read-only array, for array calls
_HARMONIC_ARRAY = np.array(_HARMONIC_TABLE)
_HARMONIC_ARRAY.flags.writeable = False


def harmonic(n):
    """n-th harmonic number H_n = 1 + 1/2 + ... + 1/n.

    For n <= 10^4 the value is read from a table of correctly rounded prefix
    sums built at import, bit-identical to ``math.fsum(1/k for k in 1..n)``;
    above that the identity H_n = psi(n + 1) + gamma is used.  Either way a
    call is O(1).

    Parameters
    ----------
    n : int or integer array
        Index, n >= 1.  An array (of at least one dimension) gives a float
        array with the bits of the scalar calls.
    """
    if type(n) is int and 0 < n <= _HARMONIC_EXACT_MAX:
        return _HARMONIC_TABLE[n]  # the common call, which needs no other check
    if not (isinstance(n, np.ndarray) and n.ndim):
        n = _check_index(n, "harmonic")
        if n <= _HARMONIC_EXACT_MAX:
            return _HARMONIC_TABLE[n]
        return float(_sc.digamma(n + 1.0)) + EULER_GAMMA
    n = _check_indices(n, "harmonic")
    exact = n <= _HARMONIC_EXACT_MAX
    out = np.empty(n.shape)
    out[exact] = _HARMONIC_ARRAY[n[exact].astype(np.intp)]
    # n + 1.0 rounds a Python int as the scalar call does
    out[~exact] = _sc.digamma(np.asarray(n[~exact] + 1.0, dtype=float)) + EULER_GAMMA
    return out


def half_geometric_sum(n: int) -> float:
    """Partial sum sum_{k=1}^{n} 1/(k*2^k).

    Monotonically increasing in n with limit ln 2; the gap to the limit is
    bounded by 2^-n.  Accepts n = 0 (empty sum).  Read from a prefix-sum
    table, bit-identical to ``math.fsum`` over the terms.
    """
    n = _check_index(n, "half_geometric_sum", minimum=0)
    return _HALF_GEOMETRIC_TABLE[min(n, _HALF_GEOMETRIC_CAP)]


def beta_function(a, b: float):
    """Euler beta function B(a, b), computed via log-gamma for stability.

    Handles large arguments such as B(2n - 1, c) with n ~ 10^6 without
    overflow.  Requires a > 0 and b > 0.  ``a`` may be an array, which
    gives a float array with the bits of the scalar calls.
    """
    m = _math(type(a))
    a, b = m.float(a), float(b)
    if not (m.all(a > 0.0) and b > 0.0):
        raise ValueError(f"beta_function requires a, b > 0, got ({a!r}, {b!r})")
    return m.exp(_sc.betaln(a, b))


def beta_n1_log_moment(n: int) -> float:
    """E[ln(1 - Y)] for Y ~ Beta(n, 1), which equals -H_n.

    The density of Y is n*y^(n-1) on (0, 1); expanding ln(1 - y) and
    integrating term by term telescopes to the negated harmonic number.
    """
    n = _check_index(n, "beta_n1_log_moment")
    return -harmonic(n)


LOG_POWER_INTEGRAL_KINDS = (
    "lower_half_log",
    "power_log",
    "power_loglog",
    "power_logpow",
)


def log_power_integral(
    kind: str,
    *,
    n: int | None = None,
    nu: float | None = None,
    mu: float | None = None,
) -> float:
    """Closed forms for four logarithmic moment integrals on (0, 1).

    kind = "lower_half_log"
        integral_0^(1/2) n y^(n-1) ln y dy = -2^-n (ln 2 + 1/n),  n >= 1.
    kind = "power_log"
        integral_0^1 y^(n-1) ln y dy = -1/n^2,  n >= 1.
    kind = "power_loglog"
        integral_0^1 y^(n-1) ln(-ln y) dy = -(gamma + ln n)/n,  n >= 1.
    kind = "power_logpow"
        integral_0^1 x^(nu-1) (ln(1/x))^(mu-1) dx = Gamma(mu)/nu^mu,
        nu > 0, mu > 0 (substitute x = e^-s to get a gamma integral).

    Each value is pinned against adaptive quadrature in the test suite.
    """
    if kind == "lower_half_log":
        n = _check_index(n, kind)
        return -(2.0**-n) * (math.log(2.0) + 1.0 / n)
    if kind == "power_log":
        n = _check_index(n, kind)
        return -1.0 / (n * n)
    if kind == "power_loglog":
        n = _check_index(n, kind)
        return -(EULER_GAMMA + math.log(n)) / n
    if kind == "power_logpow":
        if nu is None or mu is None:
            raise ValueError("power_logpow requires nu and mu")
        nu, mu = float(nu), float(mu)
        if not (nu > 0.0 and mu > 0.0):
            raise ValueError(f"power_logpow requires nu, mu > 0, got ({nu!r}, {mu!r})")
        return float(math.exp(_sc.gammaln(mu) - mu * math.log(nu)))
    raise ValueError(
        f"unknown integral kind {kind!r}; expected one of {LOG_POWER_INTEGRAL_KINDS}"
    )


def _elementwise(f):
    """``f`` applied to each element of an array, as a float array of its
    shape; further arguments are passed to every call."""

    def apply(x: np.ndarray, *args) -> np.ndarray:
        values = map(f, x.ravel().tolist(), *map(repeat, args))
        return np.fromiter(values, float, x.size).reshape(x.shape)

    return apply


# The math the closed forms call on n: libm on a Python number, the same
# libm function element by element on an array (see the module docstring).
# ``pow`` is ``**``, not math.pow, so that an overflow keeps its message;
# ``all`` reduces a condition and ``where`` picks by one.
_SCALAR_MATH = SimpleNamespace(
    log=math.log,
    log1p=math.log1p,
    exp=math.exp,
    expm1=math.expm1,
    pow=operator.pow,
    float=float,
    all=bool,
    where=lambda condition, x, y: x if condition else y,
)
_ARRAY_MATH = SimpleNamespace(
    log=_elementwise(math.log),
    log1p=_elementwise(math.log1p),
    exp=_elementwise(math.exp),
    expm1=_elementwise(math.expm1),
    pow=_elementwise(operator.pow),
    float=lambda x: np.asarray(x, dtype=float),
    all=np.all,
    where=np.where,
)


class _MathOfType(dict):
    """The math for a type of n, remembered per type: an array's, element
    by element, or a scalar's."""

    def __missing__(self, kind: type) -> SimpleNamespace:
        math_ = _ARRAY_MATH if issubclass(kind, np.ndarray) else _SCALAR_MATH
        return self.setdefault(kind, math_)


# ``_math(type(n))`` is the math for n: a dict lookup rather than a Python
# function, as every scalar call of a closed form makes one
_math = _MathOfType().__getitem__


def _check_index(n: int | None, name: str, minimum: int = 1) -> int:
    """The package's one check on an integer n: int or numpy integer, not
    bool, and at least ``minimum``; ``name`` is the caller, for the message."""
    if n is None or isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} requires an integer n, got {n!r}")
    n = int(n)
    if n < minimum:
        raise ValueError(f"{name} requires n >= {minimum}, got {n}")
    return n


def _check_indices(n: np.ndarray, name: str) -> np.ndarray:
    """:func:`_check_index` at every element of an array of n, at once for an
    integer array; the message names the first offending element."""
    for m in n[n < 1] if n.dtype.kind in "iu" else n.flat:
        _check_index(m, name)
    return n


def _check_n_grid(n_grid, name: str) -> np.ndarray:
    """A nonempty, strictly increasing grid of integers n >= 1, as a new
    array: int64 up to ``_INT64_N_MAX``, else an object array of Python ints.

    Each n is checked by :func:`_check_index`, so a message names the first
    offending value.  A range, an integer array and a list of ints are
    checked as one integer array."""
    if isinstance(n_grid, range):
        ends = (n_grid.start, n_grid.stop, n_grid.step)
        if max(map(abs, ends)) <= _INT64_N_MAX:
            n_grid = np.arange(*ends)
    if isinstance(n_grid, np.ndarray) and n_grid.ndim == 1 and n_grid.dtype.kind == "i":
        grid = n_grid.astype(np.int64)
    else:
        grid = n_grid if isinstance(n_grid, list) else list(n_grid)
        if operator.countOf(map(type, grid), int) != len(grid):
            grid = [_check_index(n, name) for n in grid]
        try:
            grid = np.fromiter(grid, np.int64, len(grid))
        except OverflowError:
            grid = np.array(grid, dtype=object)
    _check_indices(grid, name)
    if not grid.size:
        raise ValueError(f"{name} requires an n_grid with at least one value of n")
    if np.any(grid[1:] <= grid[:-1]):
        raise ValueError(f"{name} requires a strictly increasing n_grid")
    return grid.astype(object) if grid[-1] > _INT64_N_MAX else grid
