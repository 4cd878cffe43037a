"""Parent distribution catalog.

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
scale; xi = 0 denotes the Gumbel member exp(-(x + e^{-x})), and |xi| below
1e-8 is evaluated through the Gumbel branch to avoid catastrophic
cancellation.  Specs are immutable and validated on construction; the JSON
constructor rejects unknown fields outright.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAMILIES",
    "DistributionSpec",
    "DensityQuantile",
    "uniform",
    "exponential",
    "logistic",
    "pareto",
    "power_function",
    "gev",
    "from_dict",
    "from_json",
    "to_dict",
    "pdf",
    "log_pdf",
    "cdf",
    "quantile",
    "density_quantile",
    "density_quantile_profile",
    "sup_density",
    "is_log_concave",
]

FAMILIES = (
    "uniform",
    "exponential",
    "logistic",
    "pareto",
    "power_function",
    "gev",
)

_SHAPE_FAMILIES = ("pareto", "power_function")

# Below this magnitude the gev shape is numerically indistinguishable from
# the Gumbel member and the xi = 0 formulas are used.
GUMBEL_XI_EPS = 1e-8


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
        theta = float(self.theta)
        if not (math.isfinite(theta) and theta > 0.0):
            raise ValueError(f"theta must be a positive finite real, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)

        if self.family in _SHAPE_FAMILIES:
            if self.nu is None:
                raise ValueError(f"{self.family} requires a shape parameter nu")
            nu = float(self.nu)
            if not (math.isfinite(nu) and nu > 0.0):
                raise ValueError(f"nu must be a positive finite real, got {self.nu!r}")
            object.__setattr__(self, "nu", nu)
        elif self.nu is not None:
            raise ValueError(f"{self.family} does not take a shape parameter nu")

        if self.family == "gev":
            if self.xi is None:
                raise ValueError("gev requires a shape parameter xi")
            xi = float(self.xi)
            if not math.isfinite(xi):
                raise ValueError(f"xi must be a finite real, got {self.xi!r}")
            object.__setattr__(self, "xi", xi)
            if theta != 1.0:
                raise ValueError("gev is parameterized by xi only; theta is fixed at 1")
        elif self.xi is not None:
            raise ValueError(f"{self.family} does not take a shape parameter xi")

    @property
    def support(self) -> tuple[float, float]:
        """Open interval carrying the distribution's mass."""
        th = self.theta
        if self.family == "uniform":
            return (0.0, th)
        if self.family == "exponential":
            return (0.0, math.inf)
        if self.family == "logistic":
            return (-math.inf, math.inf)
        if self.family == "pareto":
            return (th, math.inf)
        if self.family == "power_function":
            return (0.0, 1.0 / th)
        xi = self.xi
        if abs(xi) < GUMBEL_XI_EPS:
            return (-math.inf, math.inf)
        if xi > 0.0:
            return (-1.0 / xi, math.inf)
        return (-math.inf, -1.0 / xi)

    def label(self) -> str:
        """Short human-readable tag, e.g. 'pareto(theta=1, nu=2)'."""
        parts = []
        if self.family != "gev":
            parts.append(f"theta={_trim(self.theta)}")
        if self.nu is not None:
            parts.append(f"nu={_trim(self.nu)}")
        if self.xi is not None:
            parts.append(f"xi={_trim(self.xi)}")
        return f"{self.family}({', '.join(parts)})"


def _trim(x: float) -> str:
    return f"{x:g}"


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

_FIELDS = {
    "uniform": frozenset({"theta"}),
    "exponential": frozenset({"theta"}),
    "logistic": frozenset({"theta"}),
    "pareto": frozenset({"theta", "nu"}),
    "power_function": frozenset({"theta", "nu"}),
    "gev": frozenset({"xi"}),
}


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
    allowed = _FIELDS[family]
    extra = set(data) - {"family"} - allowed
    if extra:
        raise ValueError(
            f"unknown field(s) {sorted(extra)} for family {family!r}; "
            f"allowed: {sorted(allowed)}"
        )
    kwargs = {k: data[k] for k in allowed if k in data}
    return DistributionSpec(family, **kwargs)


def from_json(text: str) -> DistributionSpec:
    """Parse a JSON object into a validated spec."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON distribution spec: {exc}") from exc
    return from_dict(data)


def to_dict(dist: DistributionSpec) -> dict:
    """Round-trippable plain mapping for a spec."""
    out: dict = {"family": dist.family}
    if dist.family != "gev":
        out["theta"] = dist.theta
    if dist.nu is not None:
        out["nu"] = dist.nu
    if dist.xi is not None:
        out["xi"] = dist.xi
    return out


# ---------------------------------------------------------------------------
# Evaluations (scalar or ndarray in, matching type out)
# ---------------------------------------------------------------------------


def _prepare(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr, scalar: bool):
    return float(arr) if scalar else arr


def log_pdf(dist: DistributionSpec, x):
    """Natural log of the density; -inf outside the support."""
    arr, scalar = _prepare(x)
    th = dist.theta
    neg_inf = np.full_like(arr, -np.inf)
    if dist.family == "uniform":
        out = np.where((arr >= 0.0) & (arr <= th), -math.log(th), neg_inf)
    elif dist.family == "exponential":
        out = np.where(arr >= 0.0, math.log(th) - th * arr, neg_inf)
    elif dist.family == "logistic":
        out = math.log(th) - th * arr - 2.0 * np.logaddexp(0.0, -th * arr)
    elif dist.family == "pareto":
        nu = dist.nu
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = math.log(nu) + nu * math.log(th) - (nu + 1.0) * np.log(arr)
        out = np.where(arr >= th, inside, neg_inf)
    elif dist.family == "power_function":
        nu = dist.nu
        with np.errstate(divide="ignore", invalid="ignore"):
            term = (nu - 1.0) * np.log(arr)
        if nu == 1.0:
            term = np.where(arr == 0.0, 0.0, term)
        inside = math.log(nu) + nu * math.log(th) + term
        out = np.where((arr >= 0.0) & (arr <= 1.0 / th), inside, neg_inf)
    else:
        xi = dist.xi
        if abs(xi) < GUMBEL_XI_EPS:
            with np.errstate(over="ignore"):
                out = -arr - np.exp(-arr)
        else:
            z = 1.0 + xi * arr
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                log_z = np.log(np.where(z > 0.0, z, 1.0))
                w = np.exp(-log_z / xi)
                out = np.where(z > 0.0, -(1.0 + 1.0 / xi) * log_z - w, neg_inf)
    return _finish(out, scalar)


def pdf(dist: DistributionSpec, x):
    """Density of the parent distribution; zero outside the support."""
    arr, scalar = _prepare(x)
    out = np.exp(log_pdf(dist, arr))
    return _finish(out, scalar)


def cdf(dist: DistributionSpec, x):
    """Distribution function of the parent."""
    arr, scalar = _prepare(x)
    th = dist.theta
    if dist.family == "uniform":
        out = np.clip(arr / th, 0.0, 1.0)
    elif dist.family == "exponential":
        out = np.where(arr > 0.0, -np.expm1(-th * arr), 0.0)
    elif dist.family == "logistic":
        z = th * arr
        out = np.where(
            z >= 0.0,
            1.0 / (1.0 + np.exp(-np.abs(z))),
            np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))),
        )
    elif dist.family == "pareto":
        # tail overflows for x far below the support; those lanes are masked.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tail = np.exp(dist.nu * (math.log(th) - np.log(np.where(arr > 0, arr, 1.0))))
        out = np.where(arr > th, 1.0 - tail, 0.0)
    elif dist.family == "power_function":
        out = np.clip(np.where(arr > 0.0, (th * np.clip(arr, 0.0, 1.0 / th)) ** dist.nu, 0.0), 0.0, 1.0)
    else:
        xi = dist.xi
        if abs(xi) < GUMBEL_XI_EPS:
            with np.errstate(over="ignore"):
                out = np.exp(-np.exp(-arr))
        else:
            z = 1.0 + xi * arr
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                w = np.exp(-np.log(np.where(z > 0.0, z, 1.0)) / xi)
                inside = np.exp(-w)
            out = np.where(z > 0.0, inside, np.where(arr <= 0.0, 0.0, 1.0))
    return _finish(out, scalar)


def quantile(dist: DistributionSpec, t):
    """Quantile function F^{-1}(t), defined on the open interval (0, 1)."""
    arr, scalar = _prepare(t)
    if np.any((arr <= 0.0) | (arr >= 1.0) | ~np.isfinite(arr)):
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    th = dist.theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if dist.family == "uniform":
            out = th * arr
        elif dist.family == "exponential":
            out = -np.log1p(-arr) / th
        elif dist.family == "logistic":
            out = (np.log(arr) - np.log1p(-arr)) / th
        elif dist.family == "pareto":
            out = th * np.exp(-np.log1p(-arr) / dist.nu)
        elif dist.family == "power_function":
            out = arr ** (1.0 / dist.nu) / th
        else:
            xi = dist.xi
            neg_log = -np.log(arr)  # -ln t, in (0, inf)
            if abs(xi) < GUMBEL_XI_EPS:
                out = -np.log(neg_log)
            else:
                out = np.expm1(-xi * np.log(neg_log)) / xi
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
    arr, scalar = _prepare(t)
    if np.any((arr <= 0.0) | (arr >= 1.0) | ~np.isfinite(arr)):
        raise ValueError("density_quantile requires probabilities strictly inside (0, 1)")
    th = dist.theta
    if dist.family == "uniform":
        out = np.full_like(arr, 1.0 / th)
    elif dist.family == "exponential":
        out = th * (1.0 - arr)
    elif dist.family == "logistic":
        out = th * arr * (1.0 - arr)
    elif dist.family == "pareto":
        nu = dist.nu
        out = (nu / th) * (1.0 - arr) ** ((nu + 1.0) / nu)
    elif dist.family == "power_function":
        nu = dist.nu
        out = nu * th * arr ** ((nu - 1.0) / nu)
    else:
        xi = dist.xi
        expo = 1.0 if abs(xi) < GUMBEL_XI_EPS else xi + 1.0
        out = arr * (-np.log(arr)) ** expo
    return _finish(out, scalar)


@dataclass(frozen=True)
class DensityQuantile:
    """The density-quantile profile of one catalog member.

    ``closed_form`` maps t in (0, 1) to I(t); ``at_half`` caches I(1/2),
    the quantity every finite-n and limiting bound is built from.
    """

    closed_form: object
    at_half: float


def density_quantile_profile(dist: DistributionSpec) -> DensityQuantile:
    """Bundle I(t) as a callable together with its value at t = 1/2."""
    return DensityQuantile(
        closed_form=lambda t: density_quantile(dist, t),
        at_half=density_quantile(dist, 0.5),
    )


def sup_density(dist: DistributionSpec) -> float:
    """Supremum of the density over the support (may be +inf).

    Closed form for every family.  For gev, sup_x f(x) = sup_t I(t) with
    I(t) = t(-ln t)^k, k = xi + 1; for xi > -1 the peak sits at -ln t = k,
    giving k^k e^{-k}.  xi = -1 gives 1 and xi < -1 gives +inf.
    """
    th = dist.theta
    if dist.family == "uniform":
        return 1.0 / th
    if dist.family == "exponential":
        return th
    if dist.family == "logistic":
        return th / 4.0
    if dist.family == "pareto":
        return dist.nu / th
    if dist.family == "power_function":
        return dist.nu * th if dist.nu >= 1.0 else math.inf
    xi = dist.xi
    if abs(xi) < GUMBEL_XI_EPS:
        xi = 0.0
    if xi < -1.0:
        return math.inf
    if xi == -1.0:
        return 1.0
    k = xi + 1.0
    return math.exp(k * math.log(k) - k)


def is_log_concave(dist: DistributionSpec) -> bool:
    """Whether the parent density is log-concave on its support.

    uniform, exponential and logistic always are; pareto never is;
    power_function is log-concave exactly when nu >= 1; gev exactly when
    xi = 0 or -1 < xi < 0 (for xi > 0 the log-density has a convex region
    far in the right tail, and for xi <= -1 near the upper endpoint).
    """
    if dist.family in ("uniform", "exponential", "logistic"):
        return True
    if dist.family == "pareto":
        return False
    if dist.family == "power_function":
        return dist.nu >= 1.0
    xi = dist.xi
    if abs(xi) < GUMBEL_XI_EPS:
        return True
    return -1.0 < xi < 0.0
